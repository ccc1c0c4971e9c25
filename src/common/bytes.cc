#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace scidive {

std::string to_hex(std::span<const uint8_t> data) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(data.size() * 2);
  for (uint8_t b : data) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

Bytes from_string(std::string_view s) {
  return Bytes(reinterpret_cast<const uint8_t*>(s.data()),
               reinterpret_cast<const uint8_t*>(s.data()) + s.size());
}

std::string to_string_view_copy(std::span<const uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

uint16_t internet_checksum(std::span<const uint8_t> data, uint32_t initial) {
  uint64_t sum = initial;
  const uint8_t* p = data.data();
  size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    // RFC 1071 §2(B): the ones'-complement sum is byte-order independent, so
    // sum native 32-bit words and swap the folded result once at the end
    // (instead of assembling big-endian 16-bit words byte by byte).
    uint64_t native = 0;
    for (; n >= 4; p += 4, n -= 4) {
      uint32_t w;
      std::memcpy(&w, p, 4);
      native += w;
    }
    if (n >= 2) {
      uint16_t w;
      std::memcpy(&w, p, 2);
      native += w;
      p += 2;
      n -= 2;
    }
    if (n == 1) native += *p;  // a trailing byte is the high byte of a zero-padded word
    while (native >> 16) native = (native & 0xffff) + (native >> 16);
    sum += static_cast<uint16_t>(native << 8 | native >> 8);
  } else {
    for (; n >= 2; p += 2, n -= 2) sum += static_cast<uint32_t>(p[0]) << 8 | p[1];
    if (n == 1) sum += static_cast<uint32_t>(p[0]) << 8;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum);
}

}  // namespace scidive
