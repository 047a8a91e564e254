// Little-endian binary payload codec behind the sealed checkpoint envelope
// (DESIGN.md Sec. 12).
//
// The suite checkpoint's fixed-width little-endian fields and its
// sticky-error decode discipline live here, below the envelope code.
//
// BinReader's error handling is deliberately "sticky": the first failure
// records a structured Error carrying the byte offset where the damage was
// noticed, and every later getter returns a zero value without advancing.
// Decode code therefore reads a whole record linearly and checks ok() once
// at the end instead of threading a status through every field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/expected.hpp"

namespace tlbmap {

void append_u32(std::string& out, std::uint32_t v);
void append_u64(std::string& out, std::uint64_t v);
std::uint32_t load_u32(std::string_view bytes, std::size_t at);
std::uint64_t load_u64(std::string_view bytes, std::size_t at);

/// Little-endian payload writer.
class BinWriter {
 public:
  void u32(std::uint32_t v) { append_u32(out_, v); }
  void u64(std::uint64_t v) { append_u64(out_, v); }
  void boolean(bool v) { out_.push_back(v ? '\1' : '\0'); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Little-endian payload reader with a sticky structured error: the first
/// failure is recorded as kCorruptCheckpoint.
class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  std::uint32_t u32() {
    if (!need(4, "u32")) return 0;
    const std::uint32_t v = load_u32(data_, pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8, "u64")) return 0;
    const std::uint64_t v = load_u64(data_, pos_);
    pos_ += 8;
    return v;
  }
  bool boolean() {
    if (!need(1, "bool")) return false;
    const unsigned char c = static_cast<unsigned char>(data_[pos_]);
    if (c > 1) {
      fail("bool field holds " + std::to_string(static_cast<int>(c)));
      return false;
    }
    ++pos_;
    return c == 1;
  }
  std::string str() {
    const std::uint64_t len = u64();
    if (!ok()) return {};
    if (len > data_.size() - pos_) {
      fail("string length " + std::to_string(len) + " exceeds remaining " +
           std::to_string(data_.size() - pos_) + " bytes");
      return {};
    }
    std::string s(data_.substr(pos_, static_cast<std::size_t>(len)));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  bool ok() const { return !err_.has_value(); }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t pos() const { return pos_; }
  const Error& error() const { return *err_; }

  /// Records the first failure; the offset in the message is where the
  /// decode stood when the damage was noticed.
  void fail(const std::string& what) {
    if (!err_) {
      err_ = Error{ErrorCode::kCorruptCheckpoint,
                   "checkpoint payload: " + what + " at byte " +
                       std::to_string(pos_)};
    }
  }

 private:
  bool need(std::size_t n, const char* what) {
    if (err_) return false;
    if (data_.size() - pos_ < n) {
      fail(std::string("truncated reading ") + what);
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::optional<Error> err_;
};

}  // namespace tlbmap
