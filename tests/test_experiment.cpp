// Tests for the experiment harness: metric extraction, summaries, cache
// keys and the suite cache (cold write, warm hit, damaged entries).
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "obs/obs.hpp"

namespace tlbmap {
namespace {

TEST(Experiment, MetricValues) {
  MachineStats s;
  s.execution_cycles = static_cast<Cycles>(kClockHz);  // exactly 1 second
  s.invalidations = 10;
  s.snoop_transactions = 20;
  s.l2_misses = 30;
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kTimeSeconds), 1.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kInvalidations), 10.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kSnoops), 20.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kL2Misses), 30.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kInvalidationsPerSec), 10.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kSnoopsPerSec), 20.0);
  EXPECT_DOUBLE_EQ(metric_value(s, Metric::kL2MissesPerSec), 30.0);
}

MappingRuns runs_with_cycles(std::initializer_list<Cycles> cycles) {
  MappingRuns r;
  r.label = "X";
  for (const Cycles c : cycles) {
    MachineStats s;
    s.execution_cycles = c;
    r.runs.push_back(s);
  }
  return r;
}

TEST(Experiment, SummarizeRuns) {
  const MappingRuns r = runs_with_cycles({100, 200, 300});
  const Summary s = summarize_runs(r, Metric::kTimeSeconds);
  EXPECT_EQ(s.n, 3u);
  EXPECT_NEAR(s.mean, cycles_to_seconds(200), 1e-15);
}

TEST(Experiment, NormalizedAgainstOs) {
  AppExperiment app;
  app.os_runs = runs_with_cycles({200, 200});
  app.sm_runs = runs_with_cycles({100, 100});
  EXPECT_DOUBLE_EQ(app.normalized(app.sm_runs, Metric::kTimeSeconds), 0.5);
}

TEST(Experiment, NormalizedZeroBaselineSafe) {
  AppExperiment app;
  app.os_runs = runs_with_cycles({0});
  app.sm_runs = runs_with_cycles({100});
  EXPECT_DOUBLE_EQ(app.normalized(app.sm_runs, Metric::kTimeSeconds), 1.0);
}

TEST(Experiment, CacheKeyStableAndSensitive) {
  const SuiteConfig a;
  SuiteConfig b;
  EXPECT_EQ(suite_cache_key(a), suite_cache_key(b));
  b.repetitions += 1;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(b));
  SuiteConfig c;
  c.sm.sample_threshold = 55;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(c));
  SuiteConfig d;
  d.apps = {"BT"};
  EXPECT_NE(suite_cache_key(a), suite_cache_key(d));
  SuiteConfig e;
  e.machine.tlb.entries = 128;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(e));
  // Cache latency and line size move every simulated cycle count.
  SuiteConfig f;
  f.machine.l2.latency += 1;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(f));
  SuiteConfig g;
  g.machine.l1.line_size = 128;
  EXPECT_NE(suite_cache_key(a), suite_cache_key(g));
  // Doubles enter the key at full precision.
  SuiteConfig h;
  SuiteConfig i;
  h.workload.iter_scale = 0.12345671;
  i.workload.iter_scale = 0.12345672;
  EXPECT_NE(suite_cache_key(h), suite_cache_key(i));
}

// ---------------------------------------------------------------------------
// The suite cache: an entry is the completed TLBK checkpoint.

/// Points the suite cache at a fresh directory for one test and restores
/// the environment afterwards.
class CacheDirGuard {
 public:
  explicit CacheDirGuard(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) /
             ("tlbmap_cache_" + name)) {
    std::filesystem::remove_all(dir_);
    ::setenv("TLBMAP_CACHE_DIR", dir_.c_str(), 1);
    ::unsetenv("TLBMAP_NO_CACHE");
  }
  ~CacheDirGuard() {
    ::unsetenv("TLBMAP_CACHE_DIR");
    std::filesystem::remove_all(dir_);
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

SuiteConfig cached_suite() {
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 2;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  config.use_cache = true;
  return config;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Spans named `name` in the context's trace ring.
std::size_t spans_named(const obs::ObsContext& ctx, const std::string& name) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : ctx.tracer.snapshot()) {
    if (ev.kind == obs::TraceEvent::Kind::kSpan && ev.name == name) ++n;
  }
  return n;
}

TEST(SuiteCache, ColdRunWritesEntryAndWarmRunSimulatesNothing) {
  const CacheDirGuard guard("warm");
  const SuiteConfig config = cached_suite();
  const std::filesystem::path entry = guard.dir() / suite_cache_key(config);
  EXPECT_EQ(entry.extension(), ".ckpt");

  const SuiteResult cold = run_suite(config);
  ASSERT_FALSE(cold.degraded());
  ASSERT_TRUE(std::filesystem::exists(entry));
  EXPECT_EQ(file_bytes(entry), serialize_suite(cold));

  std::ostringstream progress;
  obs::ObsContext ctx;
  const SuiteResult warm = run_suite(config, &progress, &ctx);
  EXPECT_EQ(serialize_suite(warm), serialize_suite(cold));
  ASSERT_EQ(warm.apps.size(), 1u);
  EXPECT_EQ(warm.apps[0].app, cold.apps[0].app);
  EXPECT_EQ(warm.apps[0].sm_runs.label, "SM");
  EXPECT_NE(progress.str().find("loaded cached results"), std::string::npos);
  EXPECT_EQ(spans_named(ctx, "suite.cache_load"), 1u);
  EXPECT_EQ(spans_named(ctx, "pipeline.detect"), 0u);
  EXPECT_EQ(spans_named(ctx, "pipeline.evaluate"), 0u);
}

TEST(SuiteCache, DamagedOrForeignEntriesAreRecomputedAndOverwritten) {
  const CacheDirGuard guard("damaged");
  const SuiteConfig config = cached_suite();
  const std::filesystem::path entry = guard.dir() / suite_cache_key(config);
  const std::string good = serialize_suite(run_suite(config));
  ASSERT_EQ(file_bytes(entry), good);

  // Another config's entry, copied under this config's name.
  SuiteConfig other = config;
  other.base_seed += 1;
  run_suite(other);
  const std::string foreign =
      file_bytes(guard.dir() / suite_cache_key(other));
  ASSERT_FALSE(foreign.empty());
  ASSERT_NE(foreign, good);

  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x10;  // one payload byte
  SuiteCheckpoint partial;  // sound envelope, right hash, tasks missing
  partial.config_hash = suite_config_hash(config);
  partial.detect_tasks = 3;
  partial.eval_tasks = 6;
  const std::pair<const char*, std::string> bad_entries[] = {
      {"flipped byte", flipped},
      {"truncated", good.substr(0, good.size() / 2)},
      {"foreign", foreign},
      {"incomplete", serialize_checkpoint(partial)},
  };
  for (const auto& [what, bytes] : bad_entries) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(atomic_write_file(entry, bytes).has_value());
    std::ostringstream progress;
    obs::ObsContext ctx;
    const SuiteResult result = run_suite(config, &progress, &ctx);
    EXPECT_NE(progress.str().find("rejected"), std::string::npos);
    EXPECT_EQ(progress.str().find("loaded cached results"), std::string::npos);
    EXPECT_GT(spans_named(ctx, "pipeline.evaluate"), 0u);
    EXPECT_EQ(serialize_suite(result), good);
    EXPECT_EQ(file_bytes(entry), good);
  }
}

TEST(Experiment, RunSuiteSingleAppSmoke) {
  // A minimal end-to-end suite run: one app, tiny repetitions, no cache.
  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 1;
  config.use_cache = false;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  const SuiteResult result = run_suite(config);
  ASSERT_EQ(result.apps.size(), 1u);
  const AppExperiment& app = result.apps[0];
  EXPECT_EQ(app.app, "EP");
  EXPECT_EQ(app.os_runs.runs.size(), 1u);
  EXPECT_TRUE(is_valid_mapping(app.sm_mapping, 8));
  EXPECT_TRUE(is_valid_mapping(app.hm_mapping, 8));
  EXPECT_GT(app.sm_detection.stats.accesses, 0u);
}

TEST(Experiment, RunSuiteWritesManifestAndSeries) {
  const std::string manifest_path =
      testing::TempDir() + "tlbmap_suite_manifest.json";
  std::remove(manifest_path.c_str());

  SuiteConfig config;
  config.apps = {"EP"};
  config.repetitions = 1;
  config.use_cache = false;
  config.workload.iter_scale = 0.2;
  config.detect_iter_scale = 1.0;
  config.parallel_workers = 1;  // deterministic interval-sample ordering
  config.metrics_interval_events = 50'000;
  config.manifest_out = manifest_path;

  obs::ObsContext ctx;
  ctx.level = obs::ObsLevel::kPhases;
  const SuiteResult result = run_suite(config, nullptr, &ctx);
  ASSERT_EQ(result.apps.size(), 1u);

  // The manifest landed (atomically: no .tmp sibling left behind) and holds
  // the schema fields CI and humans key on.
  ASSERT_TRUE(std::filesystem::exists(manifest_path));
  std::ifstream in(manifest_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string manifest = buf.str();
  EXPECT_NE(manifest.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(manifest.find("\"command\": \"suite\""), std::string::npos);
  EXPECT_NE(manifest.find("\"config_hash\""), std::string::npos);
  EXPECT_NE(manifest.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(manifest.find("\"max_rss_kb\""), std::string::npos);
  EXPECT_NE(manifest.find("\"phases\""), std::string::npos);
  EXPECT_NE(manifest.find("\"collapsed_sim_cycles\""), std::string::npos);
  EXPECT_NE(manifest.find("suite;detect;EP;SM"), std::string::npos);
  EXPECT_NE(manifest.find("\"cache_hit\": \"false\""), std::string::npos);
  bool tmp_left = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    if (name.find("tlbmap_suite_manifest") != std::string::npos &&
        name != "tlbmap_suite_manifest.json") {
      tmp_left = true;
    }
  }
  EXPECT_FALSE(tmp_left);

  // Interval telemetry flowed through the suite: interval samples from the
  // machines plus the three suite phase-boundary samples, in order.
  const auto samples = ctx.metrics.series().samples();
  ASSERT_FALSE(samples.empty());
  std::vector<std::string> suite_phases;
  for (const auto& s : samples) {
    if (s.reason.rfind("phase:suite.", 0) == 0) {
      suite_phases.push_back(s.reason);
    }
  }
  ASSERT_EQ(suite_phases.size(), 3u);
  EXPECT_EQ(suite_phases[0], "phase:suite.detect");
  EXPECT_EQ(suite_phases[1], "phase:suite.map");
  EXPECT_EQ(suite_phases[2], "phase:suite.evaluate");

  std::remove(manifest_path.c_str());
}

}  // namespace
}  // namespace tlbmap
