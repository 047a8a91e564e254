// Tests for binary trace capture and replay.
#include <filesystem>
#include <random>

#include <gtest/gtest.h>

#include "npb/synthetic.hpp"
#include "npb/workload.hpp"
#include "sim/machine.hpp"
#include "sim/trace_file.hpp"

namespace tlbmap {
namespace {

std::vector<TraceEvent> drain(ThreadStream& stream) {
  std::vector<TraceEvent> events;
  for (;;) {
    const TraceEvent ev = stream.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    events.push_back(ev);
  }
  return events;
}

TEST(TraceFile, EmptyStreamRoundTrip) {
  TraceWriter writer;
  TraceReader reader(writer.finish());
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);  // sticky
}

TEST(TraceFile, SimpleRoundTrip) {
  TraceWriter writer;
  writer.write(TraceEvent::make_access(4096, AccessType::kRead, 0));
  writer.write(TraceEvent::make_access(4104, AccessType::kWrite, 7));
  writer.write(TraceEvent::make_barrier());
  writer.write(TraceEvent::make_access(64, AccessType::kRead, 0));
  TraceReader reader(writer.finish());

  TraceEvent ev = reader.next();
  EXPECT_EQ(ev.kind, TraceEvent::Kind::kAccess);
  EXPECT_EQ(ev.access.addr, 4096u);
  EXPECT_EQ(ev.access.type, AccessType::kRead);
  EXPECT_EQ(ev.access.compute_gap, 0u);

  ev = reader.next();
  EXPECT_EQ(ev.access.addr, 4104u);
  EXPECT_EQ(ev.access.type, AccessType::kWrite);
  EXPECT_EQ(ev.access.compute_gap, 7u);

  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kBarrier);
  EXPECT_EQ(reader.next().access.addr, 64u);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);
}

TEST(TraceFile, RejectsGarbage) {
  EXPECT_THROW(TraceReader({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(TraceReader({'T', 'L', 'B', 'T', 99}),
               std::invalid_argument);
}

TEST(TraceFile, ErrorsCarryOffsetAndRecordIndex) {
  // Truncated header: buffer shorter than magic + version.
  try {
    TraceReader({1, 2, 3});
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTruncatedTrace);
    EXPECT_EQ(e.byte_offset(), 3u);
    EXPECT_NE(std::string(e.what()).find("at byte 3"), std::string::npos);
  }
  // Unsupported version: offset pins the version byte.
  try {
    TraceReader({'T', 'L', 'B', 'T', 99});
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
    EXPECT_EQ(e.byte_offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
  }
}

TEST(TraceFile, BadRecordHeaderNamesByteAndRecord) {
  // Valid header, one barrier, then a byte that is neither a record kind
  // nor an access header (bit 1 clear, nonzero).
  TraceReader reader({'T', 'L', 'B', 'T', 1, 0x00, 0x41});
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kBarrier);
  try {
    reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
    EXPECT_EQ(e.byte_offset(), 6u);   // the offending byte
    EXPECT_EQ(e.record_index(), 1u);  // second record (0-based)
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos);
  }
}

TEST(TraceFile, TruncatedVarintIsStructured) {
  // Access record whose varint address never terminates (all
  // continuation bits set, then EOF).
  TraceReader reader({'T', 'L', 'B', 'T', 1, 0x02, 0x80, 0x80});
  try {
    reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTruncatedTrace);
    EXPECT_EQ(e.to_error().code, ErrorCode::kTruncatedTrace);
    EXPECT_EQ(e.byte_offset(), 8u);
    EXPECT_EQ(e.record_index(), 0u);  // the access being decoded
  }
}

TEST(TraceFile, OverlongVarintIsMalformed) {
  // 11 continuation bytes push the shift past 63 bits.
  std::vector<std::uint8_t> bytes = {'T', 'L', 'B', 'T', 1, 0x02};
  for (int i = 0; i < 11; ++i) bytes.push_back(0x80);
  bytes.push_back(0x01);
  TraceReader reader(bytes);
  try {
    reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
  }
}

TEST(TraceFile, ValidateTraceAcceptsWriterOutput) {
  TraceWriter writer;
  writer.write(TraceEvent::make_access(4096, AccessType::kRead, 0));
  writer.write(TraceEvent::make_access(4104, AccessType::kWrite, 7));
  writer.write(TraceEvent::make_barrier());
  const auto bytes = writer.finish();
  const Expected<TraceStats> stats = validate_trace(bytes);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->accesses, 2u);
  EXPECT_EQ(stats->barriers, 1u);
  EXPECT_EQ(stats->records, 4u);  // incl. the end marker
  EXPECT_TRUE(stats->explicit_end);
  EXPECT_EQ(stats->bytes, bytes.size());
}

/// The " at byte N, record K" tail every TraceFormatError message ends with.
std::string error_position(const std::string& message) {
  const std::size_t at = message.find(" at byte ");
  return at == std::string::npos ? std::string() : message.substr(at);
}

TEST(TraceFile, ValidateTraceFlagsCorruptFixtures) {
  struct Fixture {
    const char* label;
    std::vector<std::uint8_t> bytes;
    ErrorCode expected;
    /// Only validate_trace rejects it: replay reads EOF as the end and never
    /// looks past an end marker.
    bool end_of_stream_check = false;
  };
  std::vector<std::uint8_t> overlong = {'T', 'L', 'B', 'T', 1, 0x02};
  for (int i = 0; i < 11; ++i) overlong.push_back(0x80);
  overlong.push_back(0x01);
  // Access with the gap flag whose gap varint decodes above 32 bits: the
  // writer never emits one, so it is corruption, not just bad framing.
  const std::vector<std::uint8_t> wide_gap = {'T', 'L', 'B', 'T', 1,
                                              0x0a, 0x05, 0x80, 0x80, 0x80,
                                              0x80, 0x20};
  const std::vector<Fixture> fixtures = {
      {"empty", {}, ErrorCode::kTruncatedTrace},
      {"short header", {'T', 'L'}, ErrorCode::kTruncatedTrace},
      {"bad magic", {'X', 'L', 'B', 'T', 1, 0x01}, ErrorCode::kMalformedTrace},
      {"bad magic, header only", {'X', 'L', 'B', 'T', 1},
       ErrorCode::kMalformedTrace},
      {"bad version", {'T', 'L', 'B', 'T', 7, 0x01},
       ErrorCode::kMalformedTrace},
      {"bad version, header only", {'T', 'L', 'B', 'T', 9},
       ErrorCode::kMalformedTrace},
      {"bad record header", {'T', 'L', 'B', 'T', 1, 0x41, 0x01},
       ErrorCode::kMalformedTrace},
      {"bad record after a barrier", {'T', 'L', 'B', 'T', 1, 0x00, 0x41},
       ErrorCode::kMalformedTrace},
      {"truncated varint", {'T', 'L', 'B', 'T', 1, 0x02, 0x80},
       ErrorCode::kTruncatedTrace},
      {"overlong varint", overlong, ErrorCode::kMalformedTrace},
      {"oversize gap", wide_gap, ErrorCode::kCorruptTrace},
      {"missing end marker", {'T', 'L', 'B', 'T', 1, 0x00},
       ErrorCode::kTruncatedTrace, true},
      {"trailing bytes", {'T', 'L', 'B', 'T', 1, 0x01, 0x00},
       ErrorCode::kMalformedTrace, true},
  };
  for (const Fixture& f : fixtures) {
    const Expected<TraceStats> result = validate_trace(f.bytes);
    ASSERT_FALSE(result.has_value()) << f.label;
    EXPECT_EQ(result.error().code, f.expected) << f.label;
    const std::string validated_at = error_position(result.error().message);
    EXPECT_NE(validated_at, "") << f.label << ": " << result.error().message;

    // Replay decodes with the same reader, so it throws the same code at
    // the same byte and record.
    std::string replayed_at;
    ErrorCode replayed_code = ErrorCode::kInvalidArgument;
    bool threw = false;
    try {
      TraceReader reader(f.bytes);
      drain(reader);
    } catch (const TraceFormatError& e) {
      threw = true;
      replayed_code = e.code();
      replayed_at = error_position(e.what());
    }
    if (f.end_of_stream_check) {
      EXPECT_FALSE(threw) << f.label;
      continue;
    }
    ASSERT_TRUE(threw) << f.label;
    EXPECT_EQ(replayed_code, f.expected) << f.label;
    EXPECT_EQ(replayed_at, validated_at) << f.label;
  }
}

TEST(TraceFile, TryLoadRecordingRejectsCorruptFile) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPrivate;
  spec.private_pages = 4;
  spec.iterations = 1;
  const auto live = make_synthetic(spec);
  const auto buffers = record_workload(*live, 1);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tlbmap_test_corrupt_rec";
  std::filesystem::remove_all(dir);
  save_recording(buffers, dir);
  ASSERT_TRUE(try_load_recording(dir).has_value());

  // Truncate thread_0's file mid-stream: structured error, names the file.
  std::filesystem::resize_file(dir / "thread_0.tlbt", 6);
  const auto result = try_load_recording(dir);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("thread_0.tlbt"), std::string::npos);
  EXPECT_THROW(load_recording(dir), std::runtime_error);
  std::filesystem::remove_all(dir);

  const auto missing = try_load_recording(dir);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::kIoError);
}

TEST(TraceFile, RandomEventsRoundTripExactly) {
  std::mt19937_64 rng(5);
  TraceWriter writer;
  std::vector<TraceEvent> original;
  for (int i = 0; i < 5000; ++i) {
    if (rng() % 20 == 0) {
      original.push_back(TraceEvent::make_barrier());
    } else {
      original.push_back(TraceEvent::make_access(
          (rng() % (1u << 24)) * 8,
          (rng() % 2) != 0u ? AccessType::kWrite : AccessType::kRead,
          static_cast<std::uint32_t>(rng() % 100)));
    }
    writer.write(original.back());
  }
  TraceReader reader(writer.finish());
  const std::vector<TraceEvent> replayed = drain(reader);
  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(replayed[i].kind, original[i].kind) << i;
    if (original[i].kind == TraceEvent::Kind::kAccess) {
      ASSERT_EQ(replayed[i].access.addr, original[i].access.addr) << i;
      ASSERT_EQ(replayed[i].access.type, original[i].access.type) << i;
      ASSERT_EQ(replayed[i].access.compute_gap,
                original[i].access.compute_gap)
          << i;
    }
  }
}

TEST(TraceFile, SequentialTracesCompressWell) {
  // A sequential sweep delta-encodes to ~2 bytes per access.
  TraceWriter writer;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    writer.write(TraceEvent::make_access(
        (VirtAddr{1} << 32) + static_cast<VirtAddr>(i) * 8,
        AccessType::kRead, 0));
  }
  const auto bytes = writer.finish();
  EXPECT_LT(bytes.size(), static_cast<std::size_t>(n) * 3);
}

TEST(TraceFile, RecordedWorkloadReplaysIdentically) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.private_pages = 8;
  spec.iterations = 2;
  const auto live = make_synthetic(spec);
  const auto buffers = record_workload(*live, /*seed=*/9);
  RecordedWorkload recorded(buffers);
  ASSERT_EQ(recorded.num_threads(), live->num_threads());

  for (ThreadId t = 0; t < live->num_threads(); ++t) {
    const auto a = drain(*live->stream(t, 9));
    const auto b = drain(*recorded.stream(t, /*seed ignored*/ 12345));
    ASSERT_EQ(a.size(), b.size()) << "thread " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].kind, b[i].kind);
      if (a[i].kind == TraceEvent::Kind::kAccess) {
        ASSERT_EQ(a[i].access.addr, b[i].access.addr);
        ASSERT_EQ(a[i].access.type, b[i].access.type);
        ASSERT_EQ(a[i].access.compute_gap, b[i].access.compute_gap);
      }
    }
    EXPECT_EQ(recorded.accesses_of(t), live->accesses_of(t));
  }
}

TEST(TraceFile, RecordedRunMatchesLiveRun) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.private_pages = 16;
  spec.iterations = 2;
  const auto live = make_synthetic(spec);
  RecordedWorkload recorded(record_workload(*live, 4));

  auto run = [](const Workload& w, std::uint64_t seed) {
    Machine m((MachineConfig()));
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (ThreadId t = 0; t < w.num_threads(); ++t) {
      streams.push_back(w.stream(t, seed));
    }
    Machine::RunConfig cfg;
    for (int t = 0; t < w.num_threads(); ++t) cfg.thread_to_core.push_back(t);
    return m.run(std::move(streams), cfg);
  };
  const MachineStats a = run(*live, 4);
  const MachineStats b = run(recorded, 4);
  EXPECT_EQ(a.execution_cycles, b.execution_cycles);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(TraceFile, SaveLoadRoundTrip) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPrivate;
  spec.private_pages = 4;
  spec.iterations = 1;
  const auto live = make_synthetic(spec);
  const auto buffers = record_workload(*live, 1);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tlbmap_test_recording";
  std::filesystem::remove_all(dir);
  save_recording(buffers, dir);
  const auto loaded = load_recording(dir);
  ASSERT_EQ(loaded.size(), buffers.size());
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    EXPECT_EQ(loaded[t], buffers[t]) << "thread " << t;
  }
  std::filesystem::remove_all(dir);
  EXPECT_THROW(load_recording(dir), std::runtime_error);
}

TEST(TraceFile, WriterEndIsIdempotent) {
  TraceWriter writer;
  writer.write(TraceEvent::make_access(8, AccessType::kRead, 0));
  writer.write(TraceEvent::make_end());
  const auto bytes = writer.finish();  // no double end marker
  TraceReader reader(bytes);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kAccess);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);
}

TEST(TraceFile, CompressionBeatsNaiveEncodingOnNpb) {
  // The headline contrast with trace-file related work: one SP thread's
  // trace (hundreds of thousands of accesses) serialises to ~2-3 bytes per
  // access instead of the 16 a raw record would take.
  WorkloadParams params;
  params.iter_scale = 0.25;
  const auto sp = make_npb_workload("SP", params);
  TraceWriter writer;
  const auto stream = sp->stream(0, 1);
  std::uint64_t accesses = 0;
  for (;;) {
    const TraceEvent ev = stream->next();
    writer.write(ev);
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++accesses;
  }
  const auto bytes = writer.finish();
  EXPECT_LT(bytes.size(), accesses * 4);
  EXPECT_GT(accesses, 10'000u);
}

}  // namespace
}  // namespace tlbmap
