// Workloads of the end-to-end benchmark: each is a seeded CarrierMixSource
// configuration plus the engine configuration it is inspected with. The
// stream is materialized once per process, before any timing, so every
// timed loop measures the IDS and never the generator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capture/carrier_mix.h"
#include "pkt/packet.h"
#include "scidive/engine.h"

namespace perfbench {

struct Workload {
  std::string name;
  scidive::capture::CarrierMixConfig mix;
  scidive::core::EngineConfig engine;
  /// Sharded and fleet shapes route INVITEs by caller so per-caller rule
  /// state (the SPIT window) stays on one worker.
  bool route_invite_by_caller = false;
};

/// The named workload at `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name, uint64_t seed);

enum class Plane : uint8_t { kSip, kRtp, kOther };

/// Properties of the generated input, recorded with every run so a later
/// change that helps only inputs with some property can cite its share, and
/// two runs can be shown to have used identical inputs.
struct InputProperties {
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t sip = 0;
  uint64_t rtp = 0;
  uint64_t other = 0;
  size_t concurrent_calls_at_end = 0;
  size_t users_materialized = 0;
  uint64_t calls_started = 0;
  uint64_t digest_failures = 0;
  uint64_t spit_attempts = 0;
  /// FNV-1a 64 over every packet's timestamp, length and bytes.
  uint64_t digest = 0;
};

struct Stream {
  std::vector<scidive::pkt::Packet> packets;
  /// Plane of each packet, classified from its UDP ports and first payload
  /// byte (not by the distiller, which is one of the layers measured).
  std::vector<Plane> planes;
  /// INVITEs sent per SPIT identity (index k is "spit<k>@...").
  std::vector<uint64_t> spit_invites;
  InputProperties props;
};

/// Generate the whole stream (mix.max_packets packets: the stated input
/// size of every throughput figure).
Stream materialize(const Workload& workload);

/// FNV-1a 64 over a packet sequence (timestamps, lengths, bytes).
uint64_t stream_digest(const std::vector<scidive::pkt::Packet>& packets);

}  // namespace perfbench
