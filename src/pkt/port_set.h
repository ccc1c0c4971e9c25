// A set of UDP/TCP ports as a bitmap over the span of its members: a
// membership test is a range check plus one bit lookup, for the per-packet
// classification tests of the Distiller and the ShardRouter (a std::set
// walk touches a heap node per tree level). The default SIP port set spans
// 23 ports, so the map is one word.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

namespace scidive::pkt {

class PortSet {
 public:
  explicit PortSet(const std::set<uint16_t>& ports) {
    if (ports.empty()) return;
    lo_ = *ports.begin();
    const uint32_t span = static_cast<uint32_t>(*ports.rbegin() - lo_) + 1;
    bits_.assign((span + 63) / 64, 0);
    for (uint16_t p : ports) {
      const uint32_t i = static_cast<uint32_t>(p - lo_);
      bits_[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }

  bool contains(uint16_t port) const {
    const uint32_t i = static_cast<uint32_t>(port) - lo_;  // wraps below lo_
    return (i >> 6) < bits_.size() && ((bits_[i >> 6] >> (i & 63)) & 1);
  }

 private:
  uint32_t lo_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace scidive::pkt
