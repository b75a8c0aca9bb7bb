// Byte-buffer serialization used for all message payloads.
//
// Writer appends POD values and ranges; Reader consumes them in the same
// order.  Values are stored in native byte order: all simulated nodes live
// in one process, exactly as all SP2 nodes in the paper shared one
// architecture.  Reader performs bounds checking on every extraction so a
// malformed message fails loudly instead of corrupting protocol state.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/assert.hpp"

namespace sdsm {

class Writer {
 public:
  Writer() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  /// Writes a length-prefixed span of trivially copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> values) {
    put<std::uint64_t>(values.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
    bytes_.insert(bytes_.end(), p, p + values.size_bytes());
  }

  void put_string(const std::string& s) {
    put_span<char>(std::span<const char>(s.data(), s.size()));
  }

  /// Writes raw bytes without a length prefix (caller encodes the length).
  void put_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    SDSM_REQUIRE(pos_ + sizeof(T) <= bytes_.size());
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint64_t>();
    // Divide, not multiply: a wire length near 2^64 / sizeof(T) would wrap.
    SDSM_REQUIRE(n <= remaining() / sizeof(T));
    std::vector<T> values(n);
    if (n > 0) {  // data() may be null on empty vectors/spans (UB in memcpy)
      std::memcpy(values.data(), bytes_.data() + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return values;
  }

  std::string get_string() {
    const auto chars = get_vector<char>();
    return std::string(chars.begin(), chars.end());
  }

  /// Copies n raw bytes into dst (no length prefix).
  void get_raw(void* dst, std::size_t n) {
    SDSM_REQUIRE(n <= remaining());
    if (n > 0) std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace sdsm
