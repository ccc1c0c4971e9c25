#include "workload.h"

#include <algorithm>
#include <set>

#include "scidive/distiller.h"

namespace perfbench {

namespace sc = scidive;

namespace {

// The SPIT cohort's source addresses: 172.16.0.(k+1) for identity k (see
// CarrierMixSource::spit_addr).
constexpr uint32_t kSpitBase = (172u << 24) | (16u << 16);

Workload carrier_signaling(uint64_t seed) {
  // Signaling-heavy: one-second holds create and tear down sessions
  // constantly, and IM/REGISTER with the default digest challenge and
  // failure rates keep SIP distill, SIP trail routing, event generation and
  // fleet gossip busy; the fast path does almost nothing.
  Workload w;
  w.name = "carrier_signaling";
  w.mix.seed = seed;
  w.mix.provisioned_users = 1'000'000;
  w.mix.call_rate_hz = 400.0;
  w.mix.mean_call_hold_sec = 1.0;
  w.mix.im_rate_hz = 400.0;
  w.mix.register_rate_hz = 400.0;
  w.mix.max_packets = 150'000;
  return w;
}

Workload spit_inline(uint64_t seed) {
  // Media-heavy (~97% RTP into long-held calls: RTP distill, trail routing,
  // the fast path and trail memory) and the only workload with known
  // attackers: a SPIT cohort inspected inline with the prevention ruleset,
  // so rules emit verdicts into the enforcer's stores and Enforcer::decide
  // reads them per packet.
  Workload w;
  w.name = "spit_inline";
  w.mix.seed = seed;
  w.mix.provisioned_users = 1'000'000;
  w.mix.call_rate_hz = 200.0;
  w.mix.mean_call_hold_sec = 20.0;
  w.mix.im_rate_hz = 50.0;
  w.mix.register_rate_hz = 50.0;
  w.mix.spit_callers = 20;
  w.mix.spit_call_rate_hz = 40.0;
  w.mix.max_packets = 200'000;
  w.engine.enforce.mode = sc::core::EnforcementMode::kInline;
  w.engine.rules.spit_graylist = true;  // make_prevention_ruleset's set
  w.route_invite_by_caller = true;
  return w;
}

bool is_sip_port(uint16_t port) {
  static const std::set<uint16_t> ports = sc::core::DistillerConfig{}.sip_ports;
  return ports.contains(port);
}

struct Classified {
  Plane plane = Plane::kOther;
  bool invite = false;
  uint32_t src = 0;
};

Classified classify(const sc::pkt::Packet& p) {
  Classified c;
  const auto& d = p.data;
  if (d.size() < 20 || (d[0] >> 4) != 4) return c;
  const size_t ihl = static_cast<size_t>(d[0] & 0x0f) * 4;
  if (d[9] != 17 || d.size() < ihl + 8) return c;
  c.src = static_cast<uint32_t>(d[12]) << 24 | static_cast<uint32_t>(d[13]) << 16 |
          static_cast<uint32_t>(d[14]) << 8 | d[15];
  const uint16_t sport = static_cast<uint16_t>(d[ihl] << 8 | d[ihl + 1]);
  const uint16_t dport = static_cast<uint16_t>(d[ihl + 2] << 8 | d[ihl + 3]);
  const size_t payload = ihl + 8;
  if (is_sip_port(sport) || is_sip_port(dport)) {
    c.plane = Plane::kSip;
    static constexpr char kInvite[] = "INVITE ";
    c.invite = d.size() >= payload + 7 &&
               std::equal(kInvite, kInvite + 7, d.begin() + static_cast<long>(payload));
  } else if (d.size() >= payload + 12 && (d[payload] >> 6) == 2 &&
             !(d[payload + 1] >= 200 && d[payload + 1] <= 204)) {
    c.plane = Plane::kRtp;
  }
  return c;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "carrier_signaling") return carrier_signaling(seed);
  if (name == "spit_inline") return spit_inline(seed);
  return std::nullopt;
}

uint64_t stream_digest(const std::vector<sc::pkt::Packet>& packets) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& p : packets) {
    mix(static_cast<uint64_t>(p.timestamp));
    mix(p.data.size());
    for (uint8_t b : p.data) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

Stream materialize(const Workload& workload) {
  Stream s;
  sc::capture::CarrierMixSource source(workload.mix);
  s.packets.reserve(workload.mix.max_packets);
  s.planes.reserve(workload.mix.max_packets);
  s.spit_invites.assign(workload.mix.spit_callers, 0);
  sc::pkt::Packet p;
  while (source.next(&p)) {
    const Classified c = classify(p);
    s.planes.push_back(c.plane);
    switch (c.plane) {
      case Plane::kSip: ++s.props.sip; break;
      case Plane::kRtp: ++s.props.rtp; break;
      case Plane::kOther: ++s.props.other; break;
    }
    if (c.invite && c.src > kSpitBase && c.src <= kSpitBase + s.spit_invites.size()) {
      ++s.spit_invites[c.src - kSpitBase - 1];
    }
    s.props.bytes += p.data.size();
    s.packets.push_back(std::move(p));
  }
  s.props.packets = s.packets.size();
  s.props.concurrent_calls_at_end = source.active_calls();
  s.props.users_materialized = source.users_materialized();
  s.props.calls_started = source.calls_started();
  s.props.digest_failures = source.digest_failures();
  s.props.spit_attempts = source.spit_attempts();
  s.props.digest = stream_digest(s.packets);
  return s;
}

}  // namespace perfbench
