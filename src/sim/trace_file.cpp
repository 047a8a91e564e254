#include "sim/trace_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/io.hpp"

namespace tlbmap {

namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'L', 'B', 'T'};
constexpr std::uint8_t kVersion = 1;

// Record headers.
constexpr std::uint8_t kBarrier = 0x00;
constexpr std::uint8_t kEnd = 0x01;
constexpr std::uint8_t kAccess = 0x02;          // bit 1
constexpr std::uint8_t kFlagWrite = 0x04;       // bit 2
constexpr std::uint8_t kFlagHasGap = 0x08;      // bit 3
constexpr std::uint8_t kFlagAddrDelta = 0x10;   // bit 4

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

std::string format_trace_error(const std::string& what,
                               std::size_t byte_offset,
                               std::uint64_t record_index) {
  std::ostringstream msg;
  msg << what << " at byte " << byte_offset << ", record " << record_index;
  return msg.str();
}

}  // namespace

TraceFormatError::TraceFormatError(ErrorCode code, const std::string& what,
                                   std::size_t byte_offset,
                                   std::uint64_t record_index)
    : std::invalid_argument(
          format_trace_error(what, byte_offset, record_index)),
      code_(code),
      byte_offset_(byte_offset),
      record_index_(record_index) {}

TraceWriter::TraceWriter() {
  bytes_.assign(kMagic, kMagic + 4);
  bytes_.push_back(kVersion);
}

void TraceWriter::put_varint(std::uint64_t value) {
  while (value >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(value));
}

void TraceWriter::write(const TraceEvent& event) {
  if (finished_) {
    throw std::logic_error("TraceWriter::write after finish");
  }
  switch (event.kind) {
    case TraceEvent::Kind::kBarrier:
      bytes_.push_back(kBarrier);
      break;
    case TraceEvent::Kind::kEnd:
      finish();
      return;
    case TraceEvent::Kind::kAccess: {
      std::uint8_t header = kAccess;
      if (event.access.type == AccessType::kWrite) header |= kFlagWrite;
      if (event.access.compute_gap != 0) header |= kFlagHasGap;
      const std::int64_t delta =
          static_cast<std::int64_t>(event.access.addr) -
          static_cast<std::int64_t>(last_addr_);
      // Delta encoding wins for sequential walks; fall back to absolute
      // when the zigzagged delta would be larger than the address.
      const std::uint64_t zz = zigzag_encode(delta);
      const bool use_delta = zz < event.access.addr;
      if (use_delta) header |= kFlagAddrDelta;
      bytes_.push_back(header);
      put_varint(use_delta ? zz : event.access.addr);
      if (event.access.compute_gap != 0) put_varint(event.access.compute_gap);
      last_addr_ = event.access.addr;
      break;
    }
  }
  ++events_;
}

std::vector<std::uint8_t> TraceWriter::finish() {
  if (!finished_) {
    bytes_.push_back(kEnd);
    finished_ = true;
  }
  return bytes_;
}

TraceReader::TraceReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  if (bytes_.size() < 5) {
    throw TraceFormatError(ErrorCode::kTruncatedTrace,
                           "TraceReader: bad header (buffer too short)",
                           bytes_.size(), 0);
  }
  if (!std::equal(kMagic, kMagic + 4, bytes_.begin())) {
    throw TraceFormatError(ErrorCode::kMalformedTrace,
                           "TraceReader: bad header (magic mismatch)", 0, 0);
  }
  if (bytes_[4] != kVersion) {
    throw TraceFormatError(
        ErrorCode::kMalformedTrace,
        "TraceReader: bad header (unsupported version " +
            std::to_string(static_cast<int>(bytes_[4])) + ")",
        4, 0);
  }
  pos_ = 5;
}

std::uint64_t TraceReader::get_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  while (pos_ < bytes_.size()) {
    const std::uint8_t byte = bytes_[pos_++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) {
      throw TraceFormatError(ErrorCode::kMalformedTrace,
                             "TraceReader: overlong varint", pos_, records_);
    }
  }
  throw TraceFormatError(ErrorCode::kTruncatedTrace,
                         "TraceReader: truncated varint", pos_, records_);
}

TraceEvent TraceReader::next() {
  if (done_ || pos_ >= bytes_.size()) return TraceEvent::make_end();
  const std::size_t record_start = pos_;
  const std::uint8_t header = bytes_[pos_++];
  TraceEvent event;
  if (header == kBarrier) {
    event = TraceEvent::make_barrier();
  } else if (header == kEnd) {
    done_ = true;
    event = TraceEvent::make_end();
  } else if ((header & kAccess) == 0) {
    std::ostringstream hex;
    hex << std::hex << static_cast<int>(header);
    throw TraceFormatError(ErrorCode::kMalformedTrace,
                           "TraceReader: bad record header 0x" + hex.str(),
                           record_start, records_);
  } else {
    const std::uint64_t raw = get_varint();
    VirtAddr addr;
    if ((header & kFlagAddrDelta) != 0) {
      addr = static_cast<VirtAddr>(static_cast<std::int64_t>(last_addr_) +
                                   zigzag_decode(raw));
    } else {
      addr = raw;
    }
    last_addr_ = addr;
    std::uint32_t gap = 0;
    if ((header & kFlagHasGap) != 0) {
      const std::uint64_t raw_gap = get_varint();
      // Oversized gap: the writer emits at most 32 bits, so a wider value is
      // stream damage. Truncating it silently would replay a corrupt trace
      // as a subtly different workload.
      if (raw_gap > 0xffffffffull) {
        throw TraceFormatError(ErrorCode::kCorruptTrace,
                               "TraceReader: compute gap out of range", pos_,
                               records_);
      }
      gap = static_cast<std::uint32_t>(raw_gap);
    }
    event = TraceEvent::make_access(
        addr, (header & kFlagWrite) != 0 ? AccessType::kWrite
                                         : AccessType::kRead,
        gap);
  }
  ++records_;
  return event;
}

Expected<TraceStats> validate_trace(const std::vector<std::uint8_t>& bytes) {
  try {
    TraceReader reader(bytes);
    TraceStats stats;
    stats.bytes = bytes.size();
    for (TraceEvent ev = reader.next(); ev.kind != TraceEvent::Kind::kEnd;
         ev = reader.next()) {
      if (ev.kind == TraceEvent::Kind::kAccess) {
        ++stats.accesses;
      } else {
        ++stats.barriers;
      }
    }
    // EOF without an end marker replays fine (the reader synthesises kEnd),
    // but a validator flags it: a writer always emits 0x01, so its absence
    // means the tail of the file was lost.
    if (!reader.explicit_end()) {
      return TraceFormatError(
                 ErrorCode::kTruncatedTrace,
                 "validate_trace: missing end marker (file truncated)",
                 reader.offset(), reader.records())
          .to_error();
    }
    if (reader.offset() != bytes.size()) {
      return TraceFormatError(ErrorCode::kMalformedTrace,
                              "validate_trace: trailing bytes after end marker",
                              reader.offset(), reader.records())
          .to_error();
    }
    stats.records = reader.records();
    stats.explicit_end = true;
    return stats;
  } catch (const TraceFormatError& e) {
    return e.to_error();
  }
}

std::vector<std::vector<std::uint8_t>> record_workload(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> buffers;
  buffers.reserve(static_cast<std::size_t>(workload.num_threads()));
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    TraceWriter writer;
    const auto stream = workload.stream(t, seed);
    for (;;) {
      const TraceEvent ev = stream->next();
      writer.write(ev);
      if (ev.kind == TraceEvent::Kind::kEnd) break;
    }
    buffers.push_back(writer.finish());
  }
  return buffers;
}

RecordedWorkload::RecordedWorkload(
    std::vector<std::vector<std::uint8_t>> buffers, std::string name)
    : buffers_(std::move(buffers)), name_(std::move(name)) {
  if (buffers_.empty()) {
    throw std::invalid_argument("RecordedWorkload: no threads");
  }
}

std::unique_ptr<ThreadStream> RecordedWorkload::stream(
    ThreadId t, std::uint64_t /*seed*/) const {
  return std::make_unique<TraceReader>(
      buffers_[static_cast<std::size_t>(t)]);
}

std::uint64_t RecordedWorkload::accesses_of(ThreadId t) const {
  TraceReader reader(buffers_[static_cast<std::size_t>(t)]);
  std::uint64_t count = 0;
  for (;;) {
    const TraceEvent ev = reader.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++count;
  }
  return count;
}

std::size_t RecordedWorkload::bytes() const {
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b.size();
  return total;
}

void save_recording(const std::vector<std::vector<std::uint8_t>>& buffers,
                    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    std::ostringstream name;
    name << "thread_" << t << ".tlbt";
    // atomic_write_file (DESIGN.md Sec. 12): a crash mid-save leaves either
    // a complete per-thread trace or none — never a truncated .tlbt for
    // try_load_recording to reject later.
    const Expected<void> written = atomic_write_file(
        dir / name.str(),
        std::string_view(reinterpret_cast<const char*>(buffers[t].data()),
                         buffers[t].size()));
    if (!written) {
      throw std::runtime_error("save_recording: " + written.error().message);
    }
  }
}

Expected<std::vector<std::vector<std::uint8_t>>> try_load_recording(
    const std::filesystem::path& dir) {
  std::vector<std::vector<std::uint8_t>> buffers;
  for (std::size_t t = 0;; ++t) {
    std::ostringstream name;
    name << "thread_" << t << ".tlbt";
    const std::filesystem::path file = dir / name.str();
    std::error_code ec;
    if (!std::filesystem::exists(file, ec) || ec) break;
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return Error{ErrorCode::kIoError,
                   "load_recording: cannot open " + file.string()};
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    Expected<TraceStats> checked = validate_trace(bytes);
    if (!checked) {
      return Error{checked.error().code,
                   file.string() + ": " + checked.error().message};
    }
    buffers.push_back(std::move(bytes));
  }
  if (buffers.empty()) {
    return Error{ErrorCode::kIoError,
                 "load_recording: no thread files in " + dir.string()};
  }
  return buffers;
}

std::vector<std::vector<std::uint8_t>> load_recording(
    const std::filesystem::path& dir) {
  Expected<std::vector<std::vector<std::uint8_t>>> loaded =
      try_load_recording(dir);
  if (!loaded) throw std::runtime_error(loaded.error().message);
  return std::move(loaded.value());
}

}  // namespace tlbmap
