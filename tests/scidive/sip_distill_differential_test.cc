// Differential test for SIP distill: the Distiller's single-pass view scan
// (sip::MessageView + extractors) against the reference object-model
// decoder (sip_reference_decode.h) on every input family we have — the
// checked-in fuzz corpus, 10k mutated messages, the SIP of both carrier
// benchmark streams, and the golden four-attack and SPIT captures. Every
// input must yield the identical footprint, field for field, and the
// identical accept/reject outcome and parse_errors{proto="sip",reason}.
#include "scidive/sip_reference_decode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "capture/carrier_mix.h"
#include "capture/pcap.h"
#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "pkt/ipv4.h"
#include "pkt/udp.h"
#include "scidive/distiller.h"
#include "testbed/testbed.h"

namespace scidive::sip_reference {
namespace {

struct Tally {
  size_t accepted = 0;
  size_t rejected = 0;
};

/// Compares one payload; returns false (after recording a test failure) on
/// the first disagreement so a systematic bug reports once, not 10k times.
bool agrees(std::span<const uint8_t> payload, Tally& tally, const std::string& origin) {
  const std::string why = disagreement(payload);
  if (!why.empty()) {
    ADD_FAILURE() << origin << ": " << why << "\n  input: "
                  << std::string(reinterpret_cast<const char*>(payload.data()), payload.size());
    return false;
  }
  (decode(std::string_view(reinterpret_cast<const char*>(payload.data()), payload.size())).ok()
       ? tally.accepted
       : tally.rejected)++;
  return true;
}

bool agrees(std::string_view text, Tally& tally, const std::string& origin) {
  return agrees(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                         text.size()),
                tally, origin);
}

/// The SIP payloads of a captured packet stream (unfragmented UDP on a SIP
/// port — the packets the Distiller hands to the SIP decoder).
std::vector<Bytes> sip_payloads(const std::vector<pkt::Packet>& stream) {
  const core::DistillerConfig ports;
  std::vector<Bytes> out;
  for (const pkt::Packet& p : stream) {
    auto ip = pkt::parse_ipv4(p.data);
    if (!ip || ip.value().header.is_fragment()) continue;
    auto udp = pkt::parse_udp_packet(p.data);
    if (!udp) continue;
    const auto& u = udp.value();
    if (!ports.sip_ports.contains(u.src_port) && !ports.sip_ports.contains(u.dst_port)) continue;
    out.emplace_back(u.payload.begin(), u.payload.end());
  }
  return out;
}

std::vector<pkt::Packet> carrier_stream(capture::CarrierMixConfig mix) {
  capture::CarrierMixSource source(mix);
  return capture::read_all(source);
}

/// Every checked-in SIP corpus file (tests/fuzz/corpus/sip_*.bin), by name.
std::vector<std::pair<std::string, std::string>> corpus_sip_files() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(SCIDIVE_FUZZ_CORPUS_DIR))) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("sip_") || !name.ends_with(".bin")) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out.emplace_back(name, std::string((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SipDistillDifferential, CheckedInSipCorpus) {
  Tally tally;
  const auto files = corpus_sip_files();
  for (const auto& [name, bytes] : files) EXPECT_TRUE(agrees(bytes, tally, name));
  EXPECT_GE(files.size(), 6u);
  EXPECT_GT(tally.accepted, 0u);
  // The compact-form and folded seeds are valid, complete messages.
  for (const auto& [name, bytes] : files) {
    if (name != "sip_compact_form.bin" && name != "sip_folded_headers.bin") continue;
    const Decoded d = decode(bytes);
    EXPECT_TRUE(d.ok() && d.footprint.well_formed) << name << ": " << describe(d.footprint);
    EXPECT_FALSE(d.footprint.call_id.empty()) << name;
  }
}

TEST(SipDistillDifferential, TenThousandMutatedMessages) {
  fuzz::Mutator m(0x5ca9d1ff);
  std::vector<std::string> seeds = fuzz::sip_seeds();
  for (auto& [name, bytes] : corpus_sip_files()) seeds.push_back(std::move(bytes));
  Tally tally;
  for (int i = 0; i < 10000; ++i) {
    const std::string twisted = m.mutate_sip(seeds[static_cast<size_t>(i) % seeds.size()]);
    if (!agrees(twisted, tally, "mutation " + std::to_string(i))) break;
  }
  // The mutator must reach both outcomes or the comparison proves little.
  EXPECT_GT(tally.accepted, 1000u);
  EXPECT_GT(tally.rejected, 1000u);
}

TEST(SipDistillDifferential, CarrierBenchmarkStreams) {
  // The SIP of both end-to-end benchmark workloads (perfbench/workload.cc),
  // two seeds each.
  for (uint64_t seed : {1, 2}) {
    capture::CarrierMixConfig signaling;
    signaling.seed = seed;
    signaling.provisioned_users = 1'000'000;
    signaling.call_rate_hz = 400.0;
    signaling.mean_call_hold_sec = 1.0;
    signaling.im_rate_hz = 400.0;
    signaling.register_rate_hz = 400.0;
    signaling.max_packets = 150'000;

    capture::CarrierMixConfig spit;
    spit.seed = seed;
    spit.provisioned_users = 1'000'000;
    spit.call_rate_hz = 200.0;
    spit.mean_call_hold_sec = 20.0;
    spit.im_rate_hz = 50.0;
    spit.register_rate_hz = 50.0;
    spit.spit_callers = 20;
    spit.spit_call_rate_hz = 40.0;
    spit.max_packets = 200'000;

    for (const auto& [name, mix] : {std::pair{"carrier_signaling", signaling},
                                    std::pair{"spit_inline", spit}}) {
      Tally tally;
      const std::string origin = std::string(name) + " seed " + std::to_string(seed);
      for (const Bytes& payload : sip_payloads(carrier_stream(mix))) {
        if (!agrees(payload, tally, origin)) break;
      }
      EXPECT_GT(tally.accepted, 1000u) << origin;
      EXPECT_EQ(tally.rejected, 0u) << origin;
    }
  }
}

TEST(SipDistillDifferential, GoldenFourAttackCapture) {
  capture::PcapFileSource source(std::string(SCIDIVE_CAPTURE_DATA_DIR) + "/four_attacks.pcap");
  ASSERT_TRUE(source.ok()) << source.error();
  Tally tally;
  for (const Bytes& payload : sip_payloads(capture::read_all(source))) {
    if (!agrees(payload, tally, "four_attacks.pcap")) break;
  }
  EXPECT_GT(tally.accepted, 10u);
}

TEST(SipDistillDifferential, SpitScenarioCapture) {
  // The stream behind the SPIT golden files (testbed/spit_golden_test.cc).
  testbed::TestbedConfig cfg;
  cfg.ids_obs.time_stages = false;
  cfg.ids_watches_proxy = true;
  cfg.ids_rules.spit_graylist = true;
  cfg.ids_enforce.mode = core::EnforcementMode::kPassive;
  testbed::Testbed tb(cfg);
  std::vector<pkt::Packet> stream;
  tb.net().add_tap([&stream](const pkt::Packet& p) { stream.push_back(p); });
  tb.register_all();
  tb.establish_call(sec(2));
  tb.inject_spit_campaign(12, msec(500));
  tb.run_for(sec(8));
  Tally tally;
  for (const Bytes& payload : sip_payloads(stream)) {
    if (!agrees(payload, tally, "spit scenario")) break;
  }
  EXPECT_GT(tally.accepted, 10u);
}

}  // namespace
}  // namespace scidive::sip_reference
