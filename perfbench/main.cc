// perfbench: the end-to-end SCIDIVE benchmark.
//
// Replays one seeded, pre-materialized CarrierMixSource stream through three
// deployment shapes with the shipped defaults (EngineConfig{}: stage timing
// and the fast path on):
//   single   a ScidiveEngine on the calling thread;
//   sharded  a ShardedEngine with nproc-1 workers fed by this thread;
//   fleet    a 2-node fleet::Fleet, one worker per node, fed by this thread.
// The load is a closed loop: one producer feeds the stream at full speed
// and the rings apply kBlock backpressure. Outputs are checked on every
// pass; a failed check makes the run exit 1.
//
// Modes (--mode):
//   run     end-to-end metrics (--trace 0) or the traced per-layer run
//           (--trace 1); the last stdout line is the JSON result.
//   rss     engine_rss_mb for the single engine, meant for a fresh process.
//   inputs  the input properties and stream digest only.
//   selftest  checks self-time computation on a synthetic span tree.
// run.py wraps the modes into the command BENCHMARK.json names.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture/pcap.h"
#include "fleet/fleet.h"
#include "ruledsl/loader.h"
#include "scidive/engine.h"
#include "scidive/rules.h"
#include "scidive/shard_router.h"
#include "scidive/sharded_engine.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace sc = scidive;
using sc::core::Alert;
using sc::core::Verdict;
using sc::core::VerdictAction;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string mode = "run";
  std::string rulesets = "examples/rulesets";
  std::string trace_dir;
};

// ---------------------------------------------------------------------------
// Small statistics and output helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile of `v` (nearest rank); reorders v.
double quantile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : std::min(k - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Named metrics, each a list of per-repetition samples; reported as the
/// median over repetitions.
class Metrics {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    if (!samples_.contains(name)) order_.emplace_back(name, unit);
    samples_[name].push_back(value);
  }
  double value(const std::string& name) const { return median(samples_.at(name)); }
  const std::vector<double>& samples(const std::string& name) const { return samples_.at(name); }
  const std::vector<std::pair<std::string, std::string>>& order() const { return order_; }

 private:
  std::vector<std::pair<std::string, std::string>> order_;
  std::map<std::string, std::vector<double>> samples_;
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && failures_.size() < 32) failures_.push_back(what);
    if (!ok) ok_ = false;
  }
  bool ok() const { return ok_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool ok_ = true;
  std::vector<std::string> failures_;
};

void print_result(const Checks& checks, uint64_t attempted, uint64_t failed,
                  const Metrics& metrics, const std::vector<std::string>& names) {
  std::string out = "{\"correct\": ";
  out += checks.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : metrics.order()) {
    if (std::find(names.begin(), names.end(), name) == names.end()) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics.value(name));
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const Metrics& metrics) {
  for (const auto& [name, unit] : metrics.order()) {
    const size_t n = metrics.samples(name).size();
    std::printf("  %-40s %16.4f %s", name.c_str(), metrics.value(name), unit.c_str());
    if (n > 1) std::printf(" (median of %zu)", n);
    std::printf("\n");
  }
}

size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Output identity: alert and verdict multisets, attacker attribution.

std::vector<std::string> alert_keys(const std::vector<Alert>& alerts) {
  std::vector<std::string> keys;
  keys.reserve(alerts.size());
  for (const Alert& a : alerts) {
    keys.push_back(a.rule + '|' + std::to_string(static_cast<int>(a.severity)) + '|' +
                   a.session + '|' + std::to_string(a.time) + '|' + a.message);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> verdict_keys(const std::vector<Verdict>& verdicts) {
  std::vector<std::string> keys;
  keys.reserve(verdicts.size());
  for (const Verdict& v : verdicts) {
    keys.push_back(v.rule + '|' + std::string(sc::core::verdict_action_name(v.action)) + '|' +
                   v.session + '|' + std::to_string(v.time) + '|' + v.aor + '|' + v.message);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The SPIT identity k named as "spit<k>@" in `text`, if any.
std::optional<uint32_t> spit_identity(const std::string& text) {
  for (size_t at = text.find("spit"); at != std::string::npos; at = text.find("spit", at + 1)) {
    size_t i = at + 4;
    uint32_t k = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') k = k * 10 + (text[i++] - '0');
    if (i > at + 4 && i < text.size() && text[i] == '@') return k;
  }
  return std::nullopt;
}

bool attacker_caused(const Alert& a) {
  return a.session.starts_with("spit-") || spit_identity(a.message).has_value();
}

/// Accuracy of one shape against the injected attackers.
struct Accuracy {
  uint64_t false_alarms = 0;
  uint64_t missed_attacks = 0;
};

Accuracy score(const Stream& stream, const std::vector<Alert>& alerts,
               const std::vector<Verdict>& verdicts) {
  Accuracy acc;
  const size_t n = stream.spit_invites.size();
  std::vector<bool> alerted(n), limited(n);
  for (const Alert& a : alerts) {
    if (!attacker_caused(a)) {
      ++acc.false_alarms;
      continue;
    }
    if (auto k = spit_identity(a.message); k && *k < n) alerted[*k] = true;
  }
  for (const Verdict& v : verdicts) {
    if (v.action != VerdictAction::kRateLimit) continue;
    if (auto k = spit_identity(v.aor); k && *k < n) limited[*k] = true;
  }
  // An identity is an attack only once it has placed the attempts the SPIT
  // rule's window counts; fewer attempts in the whole stream are not a
  // campaign by the paper's definition, so they cannot be missed.
  const uint64_t threshold = static_cast<uint64_t>(sc::core::RulesConfig{}.spit_call_threshold);
  for (size_t k = 0; k < n; ++k) {
    if (stream.spit_invites[k] >= threshold && !(alerted[k] && limited[k])) {
      ++acc.missed_attacks;
    }
  }
  return acc;
}

size_t active_spit_identities(const Stream& stream) {
  const uint64_t threshold = static_cast<uint64_t>(sc::core::RulesConfig{}.spit_call_threshold);
  return static_cast<size_t>(std::count_if(stream.spit_invites.begin(), stream.spit_invites.end(),
                                           [&](uint64_t c) { return c >= threshold; }));
}

uint64_t decision_sum(const sc::core::ScidiveEngine& e) {
  uint64_t sum = 0;
  for (size_t a = 0; a < sc::core::kVerdictActionCount; ++a) {
    sum += e.decisions(static_cast<VerdictAction>(a));
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Deployment shapes.

struct Shapes {
  sc::core::EngineConfig engine;
  sc::core::ShardedEngineConfig sharded;
  sc::fleet::FleetConfig fleet;
  std::vector<std::string> fleet_nodes = {"ids-0", "ids-1"};
};

Shapes make_shapes(const Workload& w) {
  Shapes s;
  s.engine = w.engine;
  s.sharded.engine = w.engine;
  s.sharded.num_shards = std::max<size_t>(1, nproc() - 1);
  s.sharded.overflow = sc::core::OverflowPolicy::kBlock;
  s.sharded.route_invite_by_caller = w.route_invite_by_caller;
  s.fleet.node.engine.engine = w.engine;
  s.fleet.node.engine.num_shards = 1;  // one worker per node
  s.fleet.node.engine.overflow = sc::core::OverflowPolicy::kBlock;
  s.fleet.node.engine.route_invite_by_caller = w.route_invite_by_caller;
  return s;
}

/// Each pass over the stream is timed in kChunks consecutive slices of equal
/// packet count; slice k holds the same packets and meets the same engine
/// state in every round.
constexpr size_t kChunks = 128;

/// Feed every packet to `feed`, returning the wall time of each slice.
template <typename Feed>
std::vector<int64_t> feed_chunks(const std::vector<sc::pkt::Packet>& packets, Feed&& feed) {
  std::vector<int64_t> chunk_ns(kChunks);
  size_t i = 0;
  int64_t mark = now_ns();
  for (size_t c = 0; c < kChunks; ++c) {
    const size_t end = packets.size() * (c + 1) / kChunks;
    for (; i < end; ++i) feed(packets[i]);
    const int64_t now = now_ns();
    chunk_ns[c] = now - mark;
    mark = now;
  }
  return chunk_ns;
}

/// Estimates are taken at this quantile over the rounds: the time a slice
/// (or a packet's decision) takes in 9 of 10 rounds. Co-tenants on a shared
/// host make some stretches of a run much faster than the rest; the
/// sustained figure is the one that repeats from run to run.
constexpr double kSustained = 0.9;

/// For each of `n` items sampled once per round (round r's sample of item i
/// at r * n + i), the item's kSustained quantile over the rounds.
std::vector<int64_t> sustained_per_item(const std::vector<int64_t>& samples, size_t n) {
  const size_t rounds = n == 0 ? 0 : samples.size() / n;
  std::vector<int64_t> out(n), item(rounds);
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < rounds; ++r) item[r] = samples[r * n + i];
    out[i] = static_cast<int64_t>(quantile(item, kSustained));
  }
  return out;
}

/// Per-slice wall times of every round. A pass's wall time is the sum over
/// slices of each slice's sustained time.
class SliceTimes {
 public:
  void add(const std::vector<int64_t>& chunk_ns) {
    samples_.insert(samples_.end(), chunk_ns.begin(), chunk_ns.end());
  }
  double sustained_seconds() const {
    int64_t sum = 0;
    for (int64_t ns : sustained_per_item(samples_, kChunks)) sum += ns;
    return static_cast<double>(sum) * 1e-9;
  }

 private:
  std::vector<int64_t> samples_;
};

/// One shape's pass over the stream: wall time of the feed loop per slice
/// (the threaded shapes' flush counts in the last slice) and what the checks
/// and accuracy need.
struct Pass {
  std::vector<int64_t> chunk_ns;
  std::vector<Alert> alerts;
  std::vector<Verdict> verdicts;
  uint64_t lost = 0;  // ring drops + gossip drops + fed-but-not-seen
};

/// Everything the single-engine reference pass leaves behind.
struct SingleOut {
  Pass pass;
  uint64_t media_generation = 0;
};

void check_engine(Checks& checks, const std::string& shape, uint64_t fed, uint64_t seen,
                  uint64_t inspected, uint64_t decisions, bool inline_mode) {
  checks.expect(seen == fed, shape + ": packets seen " + std::to_string(seen) + " != fed " +
                                 std::to_string(fed));
  checks.expect(inspected == fed, shape + ": packets_inspected " + std::to_string(inspected) +
                                      " != packets fed " + std::to_string(fed));
  if (inline_mode) {
    checks.expect(decisions == inspected, shape + ": sum of decisions " +
                                              std::to_string(decisions) +
                                              " != packets_inspected " + std::to_string(inspected));
  }
}

SingleOut run_single(const Shapes& shapes, const std::vector<sc::pkt::Packet>& packets,
                     Checks& checks) {
  SingleOut out;
  sc::core::ScidiveEngine engine(shapes.engine);
  out.pass.chunk_ns = feed_chunks(packets, [&](const sc::pkt::Packet& p) { engine.on_packet(p); });
  const auto stats = engine.stats();
  const bool inline_mode = shapes.engine.enforce.mode == sc::core::EnforcementMode::kInline;
  check_engine(checks, "single", packets.size(), stats.packets_seen, stats.packets_inspected,
               decision_sum(engine), inline_mode);
  checks.expect(engine.distiller().stats().parse_errors.total == 0,
                "single: distiller parse errors on generated traffic: " +
                    std::to_string(engine.distiller().stats().parse_errors.total));
  out.pass.alerts = engine.alerts().alerts();
  out.pass.verdicts = engine.verdicts().verdicts();
  out.pass.lost = packets.size() - stats.packets_seen;
  out.media_generation = engine.trails().media_generation();
  return out;
}

/// Per-call on_packet latency of a fresh single engine, every call timed;
/// appends one sample per packet, in packet order, to `samples`.
void time_single_calls(const Shapes& shapes, const std::vector<sc::pkt::Packet>& packets,
                       std::vector<int64_t>& samples) {
  sc::core::ScidiveEngine engine(shapes.engine);
  for (const auto& p : packets) {
    const int64_t t0 = now_ns();
    engine.on_packet(p);
    samples.push_back(now_ns() - t0);
  }
}

void check_sharded_outputs(Checks& checks, const SingleOut& ref, const Pass& pass) {
  checks.expect(alert_keys(pass.alerts) == alert_keys(ref.pass.alerts),
                "sharded: alert multiset differs from the single engine's (" +
                    std::to_string(pass.alerts.size()) + " vs " +
                    std::to_string(ref.pass.alerts.size()) + ")");
  checks.expect(verdict_keys(pass.verdicts) == verdict_keys(ref.pass.verdicts),
                "sharded: verdict multiset differs from the single engine's (" +
                    std::to_string(pass.verdicts.size()) + " vs " +
                    std::to_string(ref.pass.verdicts.size()) + ")");
}

void finish_sharded(Checks& checks, const Shapes& shapes, sc::core::ShardedEngine& engine,
                    uint64_t fed, Pass& pass) {
  const auto stats = engine.stats();
  uint64_t decisions = 0;
  for (size_t i = 0; i < engine.num_shards(); ++i) decisions += decision_sum(engine.shard(i));
  check_engine(checks, "sharded", fed, stats.packets_seen, stats.engine.packets_inspected,
               decisions, shapes.engine.enforce.mode == sc::core::EnforcementMode::kInline);
  pass.alerts = engine.merged_alerts();
  pass.verdicts = engine.merged_verdicts();
  pass.lost = stats.packets_dropped + (fed - std::min(fed, stats.packets_seen));
}

void finish_fleet(Checks& checks, const Shapes& shapes, sc::fleet::Fleet& fleet, uint64_t fed,
                  Pass& pass) {
  uint64_t inspected = 0, decisions = 0, dropped = 0;
  for (size_t n = 0; n < fleet.size(); ++n) {
    auto& engine = fleet.node_at(n).engine();
    const auto stats = engine.stats();
    inspected += stats.engine.packets_inspected;
    dropped += stats.packets_dropped;
    for (size_t i = 0; i < engine.num_shards(); ++i) decisions += decision_sum(engine.shard(i));
  }
  const uint64_t seen = fleet.stats().packets_seen;
  check_engine(checks, "fleet", fed, seen, inspected, decisions,
               shapes.engine.enforce.mode == sc::core::EnforcementMode::kInline);
  pass.alerts = fleet.merged_alerts();
  pass.verdicts = fleet.merged_verdicts();
  pass.lost = dropped + fleet.node_stats().gossip_records_dropped + (fed - std::min(fed, seen));
}

Pass run_sharded(const Shapes& shapes, const std::vector<sc::pkt::Packet>& packets,
                 Checks& checks) {
  Pass pass;
  sc::core::ShardedEngine engine(shapes.sharded);
  pass.chunk_ns = feed_chunks(packets, [&](const sc::pkt::Packet& p) { engine.on_packet(p); });
  const int64_t t0 = now_ns();
  engine.flush();
  pass.chunk_ns.back() += now_ns() - t0;
  finish_sharded(checks, shapes, engine, packets.size(), pass);
  return pass;
}

Pass run_fleet(const Shapes& shapes, const std::vector<sc::pkt::Packet>& packets,
               Checks& checks) {
  Pass pass;
  sc::fleet::Fleet fleet(shapes.fleet, shapes.fleet_nodes);
  pass.chunk_ns = feed_chunks(packets, [&](const sc::pkt::Packet& p) { fleet.on_packet(p); });
  const int64_t t0 = now_ns();
  fleet.flush();
  pass.chunk_ns.back() += now_ns() - t0;
  finish_fleet(checks, shapes, fleet, packets.size(), pass);
  return pass;
}

/// Engine construction, ruleset load and worker start for all three shapes.
/// Destruction (joining the workers) is not part of set-up and is untimed.
double time_setup(const Shapes& shapes) {
  const int64_t t0 = now_ns();
  auto single = std::make_unique<sc::core::ScidiveEngine>(shapes.engine);
  auto sharded = std::make_unique<sc::core::ShardedEngine>(shapes.sharded);
  auto fleet = std::make_unique<sc::fleet::Fleet>(shapes.fleet, shapes.fleet_nodes);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// pcap write -> read round trip in memory. Checks the bytes survive and
/// the single engine raises the same alerts on the re-read stream. Returns
/// the re-read packets' reader cost in ns per packet.
double pcap_round_trip(const Shapes& shapes, const std::vector<sc::pkt::Packet>& packets,
                       const SingleOut& ref, Checks& checks) {
  std::stringstream file;
  {
    sc::capture::PcapWriter writer(file);
    for (const auto& p : packets) writer.write(p);
  }
  sc::capture::PcapReader reader(file);
  std::vector<sc::pkt::Packet> back;
  back.reserve(packets.size());
  sc::pkt::Packet p;
  const int64_t t0 = now_ns();
  while (reader.next(&p)) back.push_back(std::move(p));
  const double read_ns = ratio(static_cast<double>(now_ns() - t0), back.size());
  checks.expect(reader.header_ok() && reader.error().empty(), "pcap: reader error " +
                                                                  reader.error());
  bool same = back.size() == packets.size();
  for (size_t i = 0; same && i < packets.size(); ++i) {
    same = back[i].data == packets[i].data && back[i].timestamp == packets[i].timestamp;
  }
  checks.expect(same, "pcap: round trip is not byte-identical");
  Checks ignored;  // the re-read pass repeats the reference's own checks
  SingleOut again = run_single(shapes, back, ignored);
  checks.expect(alert_keys(again.pass.alerts) == alert_keys(ref.pass.alerts),
                "pcap: single-engine alerts differ after the round trip");
  checks.expect(verdict_keys(again.pass.verdicts) == verdict_keys(ref.pass.verdicts),
                "pcap: single-engine verdicts differ after the round trip");
  return read_ns;
}

void print_inputs(const Workload& w, const Stream& s, const SingleOut* ref) {
  const auto& p = s.props;
  std::printf(
      "inputs {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"packets\": %" PRIu64
      ", \"bytes\": %" PRIu64
      ", \"sip_share\": %.6f, \"rtp_share\": %.6f, \"other_share\": %.6f, "
      "\"concurrent_calls_at_end\": %zu, \"users_materialized\": %zu, "
      "\"provisioned_users\": %" PRIu64 ", \"calls_started\": %" PRIu64
      ", \"digest_failures\": %" PRIu64 ", \"spit_attempts\": %" PRIu64
      ", \"spit_identities_active\": %zu",
      w.name.c_str(), w.mix.seed, p.packets, p.bytes, ratio(p.sip, p.packets),
      ratio(p.rtp, p.packets), ratio(p.other, p.packets), p.concurrent_calls_at_end,
      p.users_materialized, w.mix.provisioned_users, p.calls_started, p.digest_failures,
      p.spit_attempts, active_spit_identities(s));
  if (ref != nullptr) {
    std::printf(", \"media_binding_changes_per_kpkt\": %.4f",
                1000.0 * ratio(ref->media_generation, p.packets));
  }
  std::printf(", \"digest\": \"%016" PRIx64 "\"}\n", p.digest);
}

// The end-to-end metric names, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "single.pps", "single.decision_p50_ns", "single.decision_p99_ns", "sharded.pps",
    "fleet.pps",  "setup_s",                "engine_rss_mb"};

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run.

int run_end_to_end(const Args& args, const Workload& w) {
  const Stream stream = materialize(w);
  const auto& packets = stream.packets;
  const Shapes shapes = make_shapes(w);
  Checks checks;
  Metrics m;
  uint64_t attempted = 0, failed = 0;
  const int64_t deadline = now_ns() + static_cast<int64_t>(args.seconds * 1e9);

  // Reference pass (also the warm-up) and the pcap round-trip check.
  const SingleOut ref = run_single(shapes, packets, checks);
  print_inputs(w, stream, &ref);
  pcap_round_trip(shapes, packets, ref, checks);

  // Set-up is small and noisy: time it many times, spread over the run,
  // and report the median.
  for (int i = 0; i < 10; ++i) m.add("setup_s", "s", time_setup(shapes));

  Accuracy acc;
  uint64_t lost = 0;
  size_t rounds = 0;
  SliceTimes single_times, sharded_times, fleet_times;
  std::vector<int64_t> decision_ns;
  int64_t round_ns = 0;
  do {
    const int64_t round_start = now_ns();
    for (int i = 0; i < 5; ++i) m.add("setup_s", "s", time_setup(shapes));
    const SingleOut single = run_single(shapes, packets, checks);
    checks.expect(alert_keys(single.pass.alerts) == alert_keys(ref.pass.alerts),
                  "single: alerts differ between passes over the same stream");
    single_times.add(single.pass.chunk_ns);
    time_single_calls(shapes, packets, decision_ns);
    // The threaded shapes are cheaper per pass and noisier (any slowed
    // vCPU stalls the pipeline): two passes each per round.
    Pass sharded, fleet;
    for (int k = 0; k < 2; ++k) {
      sharded = run_sharded(shapes, packets, checks);
      check_sharded_outputs(checks, ref, sharded);
      sharded_times.add(sharded.chunk_ns);
      fleet = run_fleet(shapes, packets, checks);
      fleet_times.add(fleet.chunk_ns);
      failed += sharded.lost + fleet.lost;
    }

    if (rounds == 0) {
      for (const Pass* pass : {&single.pass, &std::as_const(sharded), &std::as_const(fleet)}) {
        const Accuracy a = score(stream, pass->alerts, pass->verdicts);
        acc.false_alarms += a.false_alarms;
        acc.missed_attacks += a.missed_attacks;
        lost += pass->lost;
      }
    }
    attempted += 5 * packets.size();
    failed += single.pass.lost;
    ++rounds;
    // Start another round only if it can finish by the deadline.
    round_ns = now_ns() - round_start;
  } while (now_ns() + round_ns <= deadline && checks.ok());
  std::vector<int64_t> decisions = sustained_per_item(decision_ns, packets.size());
  m.add("single.pps", "pkts/s", ratio(packets.size(), single_times.sustained_seconds()));
  m.add("single.decision_p50_ns", "ns", quantile(decisions, 0.50));
  m.add("single.decision_p99_ns", "ns", quantile(decisions, 0.99));
  m.add("sharded.pps", "pkts/s", ratio(packets.size(), sharded_times.sustained_seconds()));
  m.add("fleet.pps", "pkts/s", ratio(packets.size(), fleet_times.sustained_seconds()));

  std::printf("workload %s seed %" PRIu64 ": %zu packets per pass, %zu rounds, "
              "sharded workers %zu, fleet nodes %zu x 1 worker, nproc %zu\n",
              w.name.c_str(), w.mix.seed, packets.size(), rounds, shapes.sharded.num_shards,
              shapes.fleet_nodes.size(), nproc());
  std::printf("decision latency: %zu samples, each a packet's sustained time over %zu rounds; "
              "p99 has %zu samples beyond it\n",
              decisions.size(), rounds, decisions.size() / 100);
  print_table(m);
  // Accuracy and accounting, from the first round (identical every round on
  // the same stream): printed with the end-to-end metrics, reported as
  // per-layer metrics by the traced run (see README.md for why).
  std::printf("  %-40s %16" PRIu64 " %-10s\n", "false_alarms", acc.false_alarms, "count");
  std::printf("  %-40s %16" PRIu64 " %-10s\n", "missed_attacks", acc.missed_attacks, "count");
  std::printf("  %-40s %16.6f %-10s\n", "failed_share", ratio(lost, 3 * packets.size()), "ratio");
  for (const auto& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  print_result(checks, attempted, failed, m, kEndToEnd);
  return checks.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the traced per-layer run.

/// Engine-level spans: one per ScidiveEngine::on_packet call, classified
/// by plane and by whether fastpath_bypassed() advanced. The pass's slice
/// times go to `pass_times` and every call's time to `calls` (in packet
/// order), for the same estimators as the end-to-end run.
struct EngineTrace {
  double sip_ns = 0, rtp_slow_ns = 0, rtp_fast_ns = 0;
  double fastpath_share = 0;
  double nonpass_share = 0;  // inline mode only
};

EngineTrace trace_engine(const sc::core::EngineConfig& config, const Stream& stream,
                         SpanRecorder& rec, SliceTimes& pass_times,
                         std::vector<int64_t>& calls) {
  const uint32_t n_sip = rec.intern("engine.sip"), n_slow = rec.intern("engine.rtp_slow"),
                 n_fast = rec.intern("engine.rtp_fast"), n_other = rec.intern("engine.other");
  rec.clear();
  rec.reserve(stream.packets.size());
  EngineTrace t;
  sc::core::ScidiveEngine engine(config);
  size_t i = 0;
  pass_times.add(feed_chunks(stream.packets, [&](const sc::pkt::Packet& p) {
    const uint64_t before = engine.fastpath_bypassed();
    const uint32_t span = rec.open(n_other, kNoParent, i);
    engine.on_packet(p);
    rec.close(span);
    if (stream.planes[i] == Plane::kSip) rec.rename(span, n_sip);
    if (stream.planes[i] == Plane::kRtp) {
      rec.rename(span, engine.fastpath_bypassed() != before ? n_fast : n_slow);
    }
    ++i;
  }));
  double sum[4] = {}, count[4] = {};
  for (const Span& s : rec.spans()) {
    const int64_t d = s.end_ns - s.start_ns;
    calls.push_back(d);
    const uint32_t k = s.name == n_sip ? 0 : s.name == n_slow ? 1 : s.name == n_fast ? 2 : 3;
    sum[k] += static_cast<double>(d);
    count[k] += 1;
  }
  t.sip_ns = ratio(sum[0], count[0]);
  t.rtp_slow_ns = ratio(sum[1], count[1]);
  t.rtp_fast_ns = ratio(sum[2], count[2]);
  t.fastpath_share = ratio(engine.fastpath_bypassed(), stream.packets.size());
  if (config.enforce.mode == sc::core::EnforcementMode::kInline) {
    const uint64_t inspected = engine.stats().packets_inspected;
    t.nonpass_share = ratio(inspected - engine.decisions(VerdictAction::kPass), inspected);
  }
  return t;
}

/// Per-layer sums of the replica's spans, split by footprint protocol.
struct LayerSums {
  double ns = 0;
  double allocs = 0;
  double calls = 0;
  void add(const Span& s) {
    ns += static_cast<double>(s.end_ns - s.start_ns);
    allocs += static_cast<double>(s.allocs);
    calls += 1;
  }
  double ns_per_call() const { return ratio(ns, calls); }
  double allocs_per_call() const { return ratio(allocs, calls); }
};

struct ReplicaTrace {
  LayerSums distill_sip, distill_rtp, route_sip, route_rtp, events_sip, events_rtp;
  LayerSums rules, ruledsl, decide;
  double rtp_layers_ns = 0;  // RTP packets: time inside their layer spans
  double rtp_packets = 0;
  uint64_t events = 0;
  uint64_t parse_errors = 0;
  uint64_t flow_cache_hits = 0;
  uint64_t media_footprints = 0;
  uint64_t media_generation = 0;
  uint64_t watch_generation = 0;
  size_t arena_bytes = 0;
  bool matches_engine = false;
};

std::vector<std::string> twin_rulesets(const Args& args, const Workload& w) {
  std::vector<std::string> files;
  for (const char* f : {"bye_attack", "call_hijack", "fake_im", "rtp_attack", "billing_fraud"}) {
    files.push_back(args.rulesets + "/" + f + ".sdr");
  }
  if (w.engine.rules.spit_graylist) files.push_back(args.rulesets + "/spit_graylist.sdr");
  return files;
}

/// The engine's slow path rebuilt from public calls only, with one span per
/// layer call nested under one parent span per packet:
/// Distiller::distill -> TrailManager::add -> EventGenerator::process ->
/// each subscribed Rule::on_event -> Enforcer::decide. Each subscribed .sdr
/// twin then gets the packet's events in a context of its own.
ReplicaTrace trace_replica(const Args& args, const Workload& w, const Stream& stream,
                           SpanRecorder& rec, Checks& checks) {
  namespace core = sc::core;
  const uint32_t n_pkt = rec.intern("packet"), n_distill = rec.intern("distiller.distill"),
                 n_route = rec.intern("trail_manager.add"),
                 n_events = rec.intern("event_generator.process"),
                 n_rule = rec.intern("rules.on_event"), n_sdr = rec.intern("ruledsl.on_event"),
                 n_decide = rec.intern("enforce.decide");
  const core::EngineConfig& config = w.engine;
  core::Distiller distiller(config.distiller);
  core::TrailManager trails(config.max_footprints_per_trail);
  core::EventGenerator events(trails, config.events);
  core::AlertSink sink(config.obs.alert_capacity);
  core::VerdictSink verdicts(config.enforce.verdict_capacity);
  std::unique_ptr<core::Enforcer> enforcer;
  if (config.enforce.mode != core::EnforcementMode::kOff) {
    enforcer = std::make_unique<core::Enforcer>(config.enforce);
  }
  std::vector<core::RulePtr> rules = core::make_default_ruleset(config.rules);
  std::vector<core::RulePtr> twins;
  auto compiled = sc::ruledsl::compile_ruleset_files(twin_rulesets(args, w));
  checks.expect(compiled.ok(), "ruledsl: cannot compile the .sdr twins in " + args.rulesets);
  if (compiled.ok()) twins = sc::ruledsl::make_rules(compiled.value());
  std::vector<uint32_t> subs[core::kEventTypeCount], twin_subs[core::kEventTypeCount];
  for (size_t t = 0; t < core::kEventTypeCount; ++t) {
    const auto mask = core::event_mask(static_cast<core::EventType>(t));
    for (uint32_t i = 0; i < rules.size(); ++i) {
      if (rules[i]->subscriptions() & mask) subs[t].push_back(i);
    }
    for (uint32_t i = 0; i < twins.size(); ++i) {
      if (twins[i]->subscriptions() & mask) twin_subs[t].push_back(i);
    }
  }
  core::AlertSink twin_sink;
  core::VerdictSink twin_verdicts;
  core::RuleContext ctx(trails, sink, nullptr, &verdicts, enforcer.get());
  core::RuleContext twin_ctx(trails, twin_sink, nullptr, &twin_verdicts, nullptr);
  std::vector<core::Event> scratch;
  scratch.reserve(16);

  ReplicaTrace r;
  std::vector<uint32_t> rtp_packet_spans;
  rec.clear();
  rec.reserve(stream.packets.size() * 6);
  for (size_t i = 0; i < stream.packets.size(); ++i) {
    scratch.clear();
    const uint32_t pkt = rec.open(n_pkt, kNoParent, i);
    uint32_t span = rec.open(n_distill, pkt, i);
    auto fp = distiller.distill(stream.packets[i]);
    rec.close(span);
    const uint32_t distill_span = span;
    if (fp) {
      const core::Protocol proto = fp->protocol;
      const sc::SimTime pkt_time = fp->time;
      uint64_t src_k = 0, principal_k = 0, sess_k = 0;
      if (enforcer) {
        if (!fp->src.addr.is_unspecified()) src_k = core::source_key(fp->src.addr);
        if (const auto* sip = fp->sip(); sip != nullptr && !sip->from_aor.empty()) {
          principal_k = core::aor_key(sip->from_aor);
        }
      }
      span = rec.open(n_route, pkt, i);
      core::Trail& trail = trails.add(std::move(*fp));
      rec.close(span);
      const uint32_t route_span = span;
      if (enforcer) sess_k = core::session_key(trail.key().session);
      span = rec.open(n_events, pkt, i);
      events.process(trail.back(), trail, scratch);
      rec.close(span);
      const uint32_t events_span = span;
      r.events += scratch.size();
      for (const core::Event& event : scratch) {
        for (uint32_t k : subs[static_cast<size_t>(event.type)]) {
          span = rec.open(n_rule, pkt, i);
          rules[k]->on_event(event, ctx);
          rec.close(span);
          r.rules.add(rec.spans()[span]);
        }
      }
      if (enforcer) {
        span = rec.open(n_decide, pkt, i);
        VerdictAction d = enforcer->decide(src_k, sess_k, principal_k, pkt_time);
        d = core::max_action(d, verdicts.take_pending());
        rec.close(span);
        r.decide.add(rec.spans()[span]);
      }
      const auto& sp = rec.spans();
      if (proto == core::Protocol::kSip) {
        r.distill_sip.add(sp[distill_span]);
        r.route_sip.add(sp[route_span]);
        r.events_sip.add(sp[events_span]);
      } else if (proto == core::Protocol::kRtp) {
        r.distill_rtp.add(sp[distill_span]);
        r.route_rtp.add(sp[route_span]);
        r.events_rtp.add(sp[events_span]);
        rtp_packet_spans.push_back(pkt);
      }
    }
    rec.close(pkt);
    // The .sdr twins see the same events in a context of their own, outside
    // the packet span: they are not part of the engine's slow path.
    for (const core::Event& event : scratch) {
      for (uint32_t k : twin_subs[static_cast<size_t>(event.type)]) {
        const uint32_t span = rec.open(n_sdr, kNoParent, i);
        twins[k]->on_event(event, twin_ctx);
        rec.close(span);
        r.ruledsl.add(rec.spans()[span]);
      }
    }
  }
  // A packet span's children are exactly its layer calls, so its duration
  // minus its self time is the time the layers took.
  const std::vector<int64_t> self = self_times(rec.spans());
  for (uint32_t s : rtp_packet_spans) {
    const Span& span = rec.spans()[s];
    r.rtp_layers_ns += static_cast<double>(span.end_ns - span.start_ns - self[s]);
  }
  r.rtp_packets = static_cast<double>(rtp_packet_spans.size());
  const auto& ds = distiller.stats();
  r.parse_errors = ds.parse_errors.total;
  r.media_footprints = ds.rtp_footprints + ds.rtcp_footprints;
  r.flow_cache_hits = trails.stats().flow_cache_hits;
  r.media_generation = trails.media_generation();
  r.watch_generation = events.watch_generation();
  r.arena_bytes = trails.arena_bytes_reserved();

  // The replica must reproduce the engine's slow path: same alerts and
  // verdicts as a ScidiveEngine with the fast path off on the same stream.
  core::EngineConfig slow = config;
  slow.fastpath.enabled = false;
  Checks ignored;
  Shapes ref_shapes;
  ref_shapes.engine = slow;
  const SingleOut ref = run_single(ref_shapes, stream.packets, ignored);
  r.matches_engine = alert_keys(sink.alerts()) == alert_keys(ref.pass.alerts) &&
                     verdict_keys(verdicts.verdicts()) == verdict_keys(ref.pass.verdicts);
  return r;
}

/// Sharded layers: the producer-side router on its own, then the engine with
/// every Producer::on_packet call timed.
Pass trace_sharded(const Shapes& shapes, const std::vector<sc::pkt::Packet>& packets,
                   const SingleOut& single, Checks& checks, Metrics& m) {
  const double n = static_cast<double>(packets.size());
  {
    sc::core::ShardRouterConfig rc;
    rc.num_shards = shapes.sharded.num_shards;
    rc.route_invite_by_caller = shapes.sharded.route_invite_by_caller;
    sc::core::ShardRouter router(rc);
    const int64_t t0 = now_ns();
    for (const auto& p : packets) {
      checks.expect(router.route(p).has_value(), "shard_router: a whole datagram was held");
    }
    m.add("shard_router.route_ns", "ns", ratio(static_cast<double>(now_ns() - t0), n));
  }
  Pass sharded;
  {
    sc::core::ShardedEngine engine(shapes.sharded);
    double busy = 0;
    const int64_t t0 = now_ns();
    for (const auto& p : packets) {
      const int64_t c0 = now_ns();
      engine.on_packet(p);
      busy += static_cast<double>(now_ns() - c0);
    }
    const int64_t f0 = now_ns();
    engine.flush();
    const int64_t t1 = now_ns();
    finish_sharded(checks, shapes, engine, packets.size(), sharded);
    check_sharded_outputs(checks, single, sharded);
    double worker_busy = 0, worker_idle = 0, hwm = 0, max_enq = 0, sum_enq = 0, shards = 0;
    const sc::obs::Snapshot snapshot = engine.metrics_snapshot();
    for (const auto& s : snapshot.samples()) {
      if (s.name == "scidive_shard_worker_busy_ns_total") worker_busy += s.counter;
      if (s.name == "scidive_shard_worker_idle_ns_total") worker_idle += s.counter;
      if (s.name == "scidive_shard_queue_depth_hwm") hwm = std::max(hwm, double(s.gauge));
      if (s.name == "scidive_shard_enqueued_total") {
        max_enq = std::max(max_enq, double(s.counter));
        sum_enq += s.counter;
        shards += 1;
      }
    }
    m.add("sharded_engine.enqueue_ns", "ns", busy / n);
    m.add("sharded_engine.producer_busy_share", "ratio",
          ratio(busy, static_cast<double>(t1 - t0)));
    m.add("sharded_engine.worker_busy_share", "ratio",
          ratio(worker_busy, worker_busy + worker_idle));
    m.add("sharded_engine.imbalance", "ratio", ratio(max_enq, ratio(sum_enq, shards)));
    m.add("sharded_engine.queue_hwm", "pkts", hwm);
    m.add("sharded_engine.flush_ms", "ms", static_cast<double>(t1 - f0) * 1e-6);
  }
  return sharded;
}

/// Fleet layers: every Fleet::on_packet call timed, then flush and gossip.
Pass trace_fleet(const Shapes& shapes, const Stream& stream, Checks& checks, Metrics& m) {
  const auto& packets = stream.packets;
  const double n = static_cast<double>(packets.size());
  Pass fleet_pass;
  {
    sc::fleet::Fleet fleet(shapes.fleet, shapes.fleet_nodes);
    double busy = 0;
    for (const auto& p : packets) {
      const int64_t c0 = now_ns();
      fleet.on_packet(p);
      busy += static_cast<double>(now_ns() - c0);
    }
    const int64_t f0 = now_ns();
    fleet.flush();
    const int64_t f1 = now_ns();
    finish_fleet(checks, shapes, fleet, packets.size(), fleet_pass);
    const auto ns = fleet.node_stats();
    m.add("fleet.dispatch_ns", "ns", busy / n);
    m.add("fleet.flush_ms", "ms", static_cast<double>(f1 - f0) * 1e-6);
    m.add("fleet.gossip_bytes_per_kpkt", "B/kpkt", 1000.0 * ratio(ns.gossip_bytes_built, n));
    m.add("fleet.gossip_frames_per_kpkt", "count/kpkt",
          1000.0 * ratio(ns.gossip_frames_built, n));
    m.add("fleet.records_dropped", "count", static_cast<double>(ns.gossip_records_dropped));
    m.add("fleet.false_alarms", "count",
          static_cast<double>(score(stream, fleet_pass.alerts, fleet_pass.verdicts)
                                  .false_alarms));
  }
  return fleet_pass;
}

int run_traced(const Args& args, const Workload& w) {
  const Stream stream = materialize(w);
  const auto& packets = stream.packets;
  const size_t n_packets = packets.size();
  const double n = static_cast<double>(n_packets);
  const Shapes shapes = make_shapes(w);
  Checks checks;
  Metrics m;
  uint64_t attempted = 0, failed = 0;
  const int64_t deadline = now_ns() + static_cast<int64_t>(args.seconds * 1e9);
  print_inputs(w, stream, nullptr);

  SpanRecorder engine_rec, replica_rec;
  SliceTimes plain_times, traced_times;
  std::vector<int64_t> shipped_calls, untimed_calls;
  sc::core::EngineConfig untimed_config = shapes.engine;
  untimed_config.obs.time_stages = false;
  bool replica_ok = true;
  size_t reps = 0;
  int64_t rep_ns = 0;
  do {
    const int64_t rep_start = now_ns();
    // Untraced and traced single engine: the difference is the tracing
    // overhead of one span per packet.
    const SingleOut plain = run_single(shapes, packets, checks);
    plain_times.add(plain.pass.chunk_ns);
    const EngineTrace shipped =
        trace_engine(shapes.engine, stream, engine_rec, traced_times, shipped_calls);
    SpanRecorder scratch_rec;
    SliceTimes untimed_times;
    trace_engine(untimed_config, stream, scratch_rec, untimed_times, untimed_calls);

    m.add("engine.sip_ns", "ns", shipped.sip_ns);
    m.add("engine.rtp_slow_ns", "ns", shipped.rtp_slow_ns);
    m.add("engine.rtp_fast_ns", "ns", shipped.rtp_fast_ns);
    m.add("engine.fastpath_share", "ratio", shipped.fastpath_share);
    m.add("enforce.nonpass_share", "ratio", shipped.nonpass_share);

    const ReplicaTrace r = trace_replica(args, w, stream, replica_rec, checks);
    replica_ok = replica_ok && r.matches_engine;
    checks.expect(r.parse_errors == 0, "distiller: parse errors on generated traffic: " +
                                           std::to_string(r.parse_errors));
    m.add("distiller.sip_ns", "ns", r.distill_sip.ns_per_call());
    m.add("distiller.rtp_ns", "ns", r.distill_rtp.ns_per_call());
    m.add("distiller.sip_allocs", "allocs/pkt", r.distill_sip.allocs_per_call());
    m.add("distiller.rtp_allocs", "allocs/pkt", r.distill_rtp.allocs_per_call());
    m.add("distiller.parse_errors", "count", static_cast<double>(r.parse_errors));
    m.add("trail_manager.sip_ns", "ns", r.route_sip.ns_per_call());
    m.add("trail_manager.rtp_ns", "ns", r.route_rtp.ns_per_call());
    m.add("trail_manager.sip_allocs", "allocs/pkt", r.route_sip.allocs_per_call());
    m.add("trail_manager.rtp_allocs", "allocs/pkt", r.route_rtp.allocs_per_call());
    m.add("trail_manager.flow_cache_hit_ratio", "ratio",
          ratio(r.flow_cache_hits, r.media_footprints));
    m.add("trail_manager.binding_changes_per_kpkt", "count/kpkt",
          1000.0 * ratio(r.media_generation, n));
    m.add("trail_manager.arena_bytes_per_pkt", "B/pkt", ratio(r.arena_bytes, n));
    m.add("event_generator.sip_ns", "ns", r.events_sip.ns_per_call());
    m.add("event_generator.rtp_ns", "ns", r.events_rtp.ns_per_call());
    m.add("event_generator.sip_allocs", "allocs/pkt", r.events_sip.allocs_per_call());
    m.add("event_generator.rtp_allocs", "allocs/pkt", r.events_rtp.allocs_per_call());
    m.add("event_generator.events_per_kpkt", "count/kpkt", 1000.0 * ratio(r.events, n));
    m.add("event_generator.watch_changes_per_kpkt", "count/kpkt",
          1000.0 * ratio(r.watch_generation, n));
    m.add("rules.ns_per_dispatch", "ns", r.rules.ns_per_call());
    m.add("rules.dispatches_per_event", "ratio", ratio(r.rules.calls, r.events));
    m.add("rules.allocs_per_dispatch", "allocs/call", r.rules.allocs_per_call());
    m.add("ruledsl.ns_per_dispatch", "ns", r.ruledsl.ns_per_call());
    m.add("enforce.decide_ns", "ns", r.decide.ns_per_call());
    m.add("engine.glue_ns", "ns",
          shipped.rtp_slow_ns - ratio(r.rtp_layers_ns, r.rtp_packets));
    m.add("trace.replica_matches", "bool", r.matches_engine ? 1 : 0);

    const Pass sharded = trace_sharded(shapes, packets, plain, checks, m);
    const Pass fleet_pass = trace_fleet(shapes, stream, checks, m);
    m.add("capture.pcap_read_ns_per_pkt", "ns", pcap_round_trip(shapes, packets, plain, checks));

    Accuracy acc;
    uint64_t lost = 0;
    for (const Pass* pass : {&plain.pass, &std::as_const(sharded), &std::as_const(fleet_pass)}) {
      const Accuracy a = score(stream, pass->alerts, pass->verdicts);
      acc.false_alarms += a.false_alarms;
      acc.missed_attacks += a.missed_attacks;
      lost += pass->lost;
    }
    m.add("false_alarms", "count", static_cast<double>(acc.false_alarms));
    m.add("missed_attacks", "count", static_cast<double>(acc.missed_attacks));
    m.add("failed_share", "ratio", ratio(lost, 3 * n));
    attempted += 3 * packets.size();
    failed += lost;
    ++reps;
    rep_ns = now_ns() - rep_start;
  } while (now_ns() + rep_ns <= deadline && checks.ok());
  std::vector<int64_t> shipped_ns = sustained_per_item(shipped_calls, n_packets);
  std::vector<int64_t> untimed_ns = sustained_per_item(untimed_calls, n_packets);
  m.add("obs.stage_timing_ns_per_pkt", "ns", quantile(shipped_ns, 0.5) - quantile(untimed_ns, 0.5));
  m.add("trace.overhead", "ratio",
        ratio(traced_times.sustained_seconds(), plain_times.sustained_seconds()) - 1);

  std::printf("workload %s seed %" PRIu64 ": %zu packets per pass, %zu traced repetitions, "
              "sharded workers %zu, nproc %zu\n",
              w.name.c_str(), w.mix.seed, packets.size(), reps, shapes.sharded.num_shards,
              nproc());
  if (!replica_ok) {
    std::printf("NOTE: the slow-path replica's alerts/verdicts differ from a ScidiveEngine "
                "with the fast path off; only the engine.* metrics (engine-level spans) are "
                "meaningful for this run.\n");
  }
  print_table(m);
  if (!args.trace_dir.empty()) {
    const std::string base = args.trace_dir + "/" + w.name;
    if (!engine_rec.write(base + ".engine.tsv") || !replica_rec.write(base + ".replica.tsv")) {
      std::printf("warning: could not write spans under %s\n", args.trace_dir.c_str());
    } else {
      std::printf("spans written to %s.{engine,replica}.tsv\n", base.c_str());
    }
  }
  for (const auto& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::vector<std::string> names;
  for (const auto& [name, unit] : m.order()) names.push_back(name);
  print_result(checks, attempted, failed, m, names);
  return checks.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Other modes.

/// Resident set size of this process in bytes, 0 if it cannot be read.
uint64_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Peak RSS the single engine adds on top of the materialized stream, in a
/// process that has done nothing else. RSS is sampled every 1024 packets,
/// so the generator's own earlier peak is never counted.
int run_rss(const Workload& w) {
  const Stream stream = materialize(w);
  const Shapes shapes = make_shapes(w);
  malloc_trim(0);  // hand the generator's freed memory back first
  const uint64_t base = rss_bytes();
  uint64_t peak = base;
  Checks checks;
  {
    sc::core::ScidiveEngine engine(shapes.engine);
    for (size_t i = 0; i < stream.packets.size(); ++i) {
      engine.on_packet(stream.packets[i]);
      if (i % 1024 == 0) peak = std::max(peak, rss_bytes());
    }
    peak = std::max(peak, rss_bytes());
    checks.expect(engine.stats().packets_inspected == stream.packets.size(),
                  "rss: packets_inspected != packets fed");
  }
  checks.expect(base > 0, "rss: cannot read /proc/self/statm");
  Metrics m;
  m.add("engine_rss_mb", "MB", static_cast<double>(peak - base) / (1024.0 * 1024.0));
  for (const auto& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  print_result(checks, stream.packets.size(), 0, m, {"engine_rss_mb"});
  return checks.ok() ? 0 : 1;
}

int run_inputs(const Workload& w) {
  const Stream stream = materialize(w);
  print_inputs(w, stream, nullptr);
  return 0;
}

/// Self time on a synthetic tree: root [0,100] with children [10,30],
/// [25,50] (overlapping) and [90,120] (running past the root), and a
/// grandchild [12,20] under the first child.
int run_selftest() {
  std::vector<Span> spans = {
      {0, kNoParent, 0, 0, 100, 0}, {1, 0, 0, 10, 30, 0}, {1, 0, 0, 25, 50, 0},
      {1, 0, 0, 90, 120, 0},        {2, 1, 0, 12, 20, 0},
  };
  const std::vector<int64_t> want = {50, 12, 25, 30, 8};
  const std::vector<int64_t> got = self_times(spans);
  bool ok = got == want;
  for (size_t i = 0; i < got.size(); ++i) {
    std::printf("span %zu self %lld (want %lld)\n", i, static_cast<long long>(got[i]),
                static_cast<long long>(want[i]));
  }
  std::printf("self-time %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--mode") {
      a.mode = v;
    } else if (k == "--rulesets") {
      a.rulesets = v;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--mode run|rss|inputs|selftest] [--rulesets DIR] [--trace-dir DIR]\n");
    return 2;
  }
  if (args.mode == "selftest") return run_selftest();
  const auto workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.mode == "rss") return run_rss(*workload);
  if (args.mode == "inputs") return run_inputs(*workload);
  if (args.mode != "run") return 2;
  return args.trace == 1 ? run_traced(args, *workload) : run_end_to_end(args, *workload);
}
