// Crash-safe suite checkpoints (DESIGN.md Sec. 12).
//
// A checkpoint is a sealed binary envelope:
//
//   offset  size  field
//   0       4     magic "TLBK"
//   4       4     format version (u32 LE, currently 2)
//   8       8     config hash (u64 LE) — suite_config_hash() of the run
//   16      8     payload size (u64 LE)
//   24      4     CRC-32 of the payload (u32 LE, IEEE polynomial)
//   28      ...   payload
//
// All integers are little-endian fixed-width; the payload encodes the
// suite's completed tasks (detection results, mappings, evaluation stats)
// keyed by their stable task indices. Because run_suite preassigns every
// task's seed and result slot, replaying the remaining tasks after a resume
// is bit-identical to the uninterrupted run — the differential tests in
// test_checkpoint.cpp assert exactly that.
//
// Validation is strict and structured: bad magic, truncation, a CRC
// mismatch or an unknown version yield ErrorCode::kCorruptCheckpoint with
// the byte offset of the problem (mirroring the trace reader's
// TraceFormatError); a valid envelope whose config hash differs from the
// running config yields ErrorCode::kCheckpointMismatch. Neither ever
// throws: callers fall back to a fresh run.
//
// The suite cache entry is the same file with every task done
// (serialize_suite), so parse_checkpoint is the one decoder for a suite
// result, whether --resume or a cache hit reads it back.
//
// Files are written through atomic_write_file, so a crash mid-write leaves
// either the previous checkpoint or none — never a torn one.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/expected.hpp"
#include "core/pipeline.hpp"

namespace tlbmap {

/// Current checkpoint format version (envelope field at offset 4).
/// Version history: 1 = first format; 2 = the online-mapper snapshot
/// (since removed) grew its self-stabilization trail. The suite payload is
/// the same in both.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Progress snapshot of one run_suite invocation. Task indices are the
/// suite's stable global indices: detect task i covers app i/3 with
/// mechanism i%3 (SM, HM, oracle); eval task i covers app i/(3*reps),
/// policy i%3 (OS, SM, HM), repetition (i/3)%reps. A snapshot with every
/// task done is also the suite cache entry (serialize_suite).
struct SuiteCheckpoint {
  /// suite_config_hash() of the config that produced this snapshot.
  std::uint64_t config_hash = 0;
  /// Task-count shape of the run (revalidated against the resuming
  /// config's shape — a second guard behind the hash).
  std::uint64_t detect_tasks = 0;
  std::uint64_t eval_tasks = 0;

  /// Completed detect tasks, keyed by global task index.
  std::map<std::uint64_t, DetectionResult> detect_done;
  /// Map phase completed: sm_mappings/hm_mappings hold one mapping per app.
  bool map_done = false;
  std::vector<Mapping> sm_mappings;
  std::vector<Mapping> hm_mappings;
  /// Completed evaluate tasks, keyed by global task index.
  std::map<std::uint64_t, MachineStats> eval_done;
};

/// Wraps `payload` in the TLBK envelope (magic, version, hash, size, CRC).
std::string seal_checkpoint(std::string_view payload,
                            std::uint64_t config_hash);

/// Validates the envelope and returns the payload. kCorruptCheckpoint on
/// truncation / bad magic / version skew / CRC mismatch (message carries
/// the byte offset); kCheckpointMismatch when the envelope is sound but
/// its config hash differs from `expected_hash`.
Expected<std::string> unseal_checkpoint(std::string_view bytes,
                                        std::uint64_t expected_hash);

/// Full checkpoint file bytes (payload sealed in the envelope).
std::string serialize_checkpoint(const SuiteCheckpoint& ckpt);

/// Inverse of serialize_checkpoint, with the same error taxonomy as
/// unseal_checkpoint plus kCorruptCheckpoint for payload-level damage.
Expected<SuiteCheckpoint> parse_checkpoint(std::string_view bytes,
                                           std::uint64_t expected_hash);

/// serialize + atomic_write_file. kIoError on filesystem failure.
Expected<void> save_checkpoint(const std::filesystem::path& path,
                               const SuiteCheckpoint& ckpt);

/// read_file + parse_checkpoint. kIoError when the file cannot be read.
Expected<SuiteCheckpoint> load_checkpoint(const std::filesystem::path& path,
                                          std::uint64_t expected_hash);

}  // namespace tlbmap
