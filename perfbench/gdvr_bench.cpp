// gdvr_bench: the end-to-end GDVR benchmark, one workload per process.
//
// Every workload runs the paper's workflow through the public API: build a
// lossy-radio topology (radio::make_random_topology), converge VPoD/MDT over
// it (eval::VpodRunner), optionally route live packets (vpod::LiveGdv), then
// evaluate GDV and the baselines on the result (routing::snapshot_overlay via
// VpodRunner::snapshot, eval::evaluate_router) and audit the overlay
// (eval::audit_invariants). All timings are steady_clock wall time; the
// end-to-end ones are scaled to a reference host speed (see Host-speed
// calibration below).
//
//   gdvr_bench --workload construct --seed 3 --seconds 10 --trace 0
//   gdvr_bench --workload forward --seed 3 --seconds 1 --trace 1 --tiny
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload once
// untraced and once traced and prints the per-layer metrics of the traced
// pass, timed from here around calls into each layer plus the library's own
// GDVR_PROFILE_SCOPE sites; --spans FILE writes the traced pass's spans.
// --tiny shrinks every workload for a smoke test. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/invariants.hpp"
#include "eval/protocol_runner.hpp"
#include "eval/routing_eval.hpp"
#include "obs/profile.hpp"
#include "radio/topology.hpp"
#include "vpod/live_gdv.hpp"

#ifndef GDVR_BENCH_BUILD_TYPE
#define GDVR_BENCH_BUILD_TYPE "unknown"
#endif

using namespace gdvr;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double since(Clock::time_point t) { return std::chrono::duration<double>(Clock::now() - t).count(); }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  int nodes = 0;
  // Distinct topologies per run; instance i of seed s uses topology seed
  // 1000 s + i. Averaging over them keeps one seed's figures close to
  // another's.
  int instances = 1;
  // Adjustment periods converged during set-up; -1 means a cold start, so
  // the measured phase is the whole construction.
  int warm_periods = -1;
  // The measured phase runs run_to_period(warm_periods + 1 .. last_period);
  // a live workload instead settles to last_period after its drain.
  int last_period = 0;
  // Replays the first instance on the sharded engine, which must reproduce
  // the serial run exactly.
  bool sharded_replay = false;
  // Open-loop live data plane in the measured phase instead of periods.
  bool live = false;
  double live_rate = 0.0;  // packets per simulated second
};

// The sharded replay runs on this many shards and worker threads.
constexpr int kShards = 3;
// Live injection window in simulated seconds: one J + A cycle of the VPoD
// defaults. The data plane then drains for kDrainS.
constexpr double kLiveCycleS = 26.0;
constexpr double kDrainS = 6.0;
// The live phase runs in steps of this many simulated seconds, so that the
// reference kernel can be timed between them.
constexpr double kLiveStepS = 1.0;
// Untraced passes evaluate each instance this many times.
constexpr int kEvalRepeats = 3;
// An untraced invocation makes at least this many passes over its instances.
constexpr std::size_t kMinPasses = 2;

bool find_workload(const std::string& name, bool tiny, Workload& w) {
  w = Workload{};
  w.name = name;
  if (name == "construct") {
    w.nodes = tiny ? 40 : 48;
    w.instances = tiny ? 2 : 24;
    w.last_period = tiny ? 1 : 3;
    w.sharded_replay = true;
  } else if (name == "maintain") {
    w.nodes = tiny ? 40 : 64;
    w.instances = tiny ? 2 : 12;
    w.warm_periods = tiny ? 1 : 4;
    w.last_period = tiny ? 3 : 12;
  } else if (name == "forward") {
    w.nodes = tiny ? 40 : 64;
    w.instances = tiny ? 2 : 12;
    w.warm_periods = tiny ? 1 : 4;
    w.last_period = w.warm_periods + 2;
    w.live = true;
    w.live_rate = tiny ? 400.0 : 3200.0;
  } else {
    return false;
  }
  return true;
}

// The paper's setup: N nodes uniform in a square whose side grows with
// sqrt(N), transmit power tuned to an average physical degree of 14.5.
radio::Topology make_topology(int nodes, std::uint64_t seed) {
  radio::TopologyConfig tc;
  tc.n = nodes;
  tc.seed = seed;
  tc.target_avg_degree = 14.5;
  const double scale = std::sqrt(static_cast<double>(nodes) / 200.0);
  tc.width_m = 100.0 * scale;
  tc.height_m = 100.0 * scale;
  return radio::make_random_topology(tc);
}

// Selects the simulator engine for the next VpodRunner (its engine seam
// reads these variables at construction).
void select_engine(bool sharded) {
  const std::string shards = std::to_string(kShards);
  setenv("GDVR_SIM_ENGINE", sharded ? "sharded" : "serial", 1);
  setenv("GDVR_SIM_SHARDS", sharded ? shards.c_str() : "1", 1);
  setenv("GDVR_THREADS", sharded ? shards.c_str() : "1", 1);
}

// ---------------------------------------------------------------------------
// Process probes

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Host-speed calibration
//
// A core of a shared host runs up to half again slower for tens of seconds at
// a time, so one run's raw wall times can differ from the next run's by more
// than a change worth catching. Untraced passes therefore also time a fixed
// reference kernel after every step of the workload, and scale the pass's
// timings by kReferenceS over the kernel's mean time in that pass: they read
// as seconds on a host that runs the kernel in kReferenceS. The kernel lives
// here, so no change to the program moves it; its mix (a binary heap of timed
// events, hash-map updates, small determinants) follows the simulator's.
constexpr double kReferenceS = 0.002;

double reference_kernel_s() {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::pair<double, std::uint32_t>> heap;
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  for (std::uint32_t it = 0; it < 20000; ++it) {
    x ^= x << 13;  // xorshift64
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace_back(static_cast<double>(x % 100000), it);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 2000) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += heap.back().first;
      heap.pop_back();
    }
    table[static_cast<std::uint32_t>(x % 8192)] += it;
    double m[3][3];
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b) m[a][b] = static_cast<double>((x >> (3 * a + b)) & 1023);
    acc += m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
           m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
           m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  }
  volatile double sink = acc + static_cast<double>(table.size());
  (void)sink;
  return since(t0);
}

struct ProfileRow {
  double calls = 0.0;
  double s = 0.0;
};

// Reads the library's profile sites back through their public report.
std::map<std::string, ProfileRow> read_profile() {
  std::ostringstream os;
  obs::write_profile_report(os);
  std::istringstream in(os.str());
  std::map<std::string, ProfileRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name;
    double calls = 0.0, total_ms = 0.0, mean_us = 0.0;
    if (ls >> name >> calls >> total_ms >> mean_us) rows[name] = {calls, total_ms / 1e3};
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory and written at exit, handler time by kind.

constexpr int kKinds = static_cast<int>(mdt::Kind::kHeartbeat) + 1;
constexpr std::array<const char*, kKinds> kKindNames = {
    "token",         "hello",      "join_request", "join_reply", "nbr_set_request",
    "nbr_set_reply", "pos_update", "data",         "ack",        "heartbeat"};
// Kinds the default protocol configuration exchanges, reported by name.
constexpr int kReportedKinds = static_cast<int>(mdt::Kind::kPosUpdate) + 1;

struct KindTotals {
  std::array<std::uint64_t, kKinds> calls{};
  std::array<std::uint64_t, kKinds> ns{};
};

class Tracer {
 public:
  // Opens a span starting now; close it with end().
  int begin(std::string name, int parent) {
    return add(std::move(name), parent, since(kOrigin), 0.0);
  }
  void end(int span) {
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.dur_s = since(kOrigin) - s.start_s;
  }
  int add(std::string name, int parent, double start_s, double dur_s) {
    spans_.push_back({std::move(name), parent, start_s, dur_s});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Re-installs the NetSim receiver around the public Vpod::handle so every
  // protocol handler of this instance is timed by message kind. Traced
  // passes run on the serial engine, so handlers never run concurrently.
  void wrap_receiver(eval::VpodRunner& runner) {
    handlers_ = {};
    vpod::Vpod& vpod = runner.protocol();
    runner.net().set_receiver([this, &vpod](int to, int from, mdt::Envelope msg) {
      const auto kind = static_cast<std::size_t>(msg.kind);
      const Clock::time_point t0 = Clock::now();
      vpod.handle(to, from, std::move(msg));
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
      ++handlers_.calls[kind];
      handlers_.ns[kind] += static_cast<std::uint64_t>(ns.count());
    });
  }

  const KindTotals& handler_totals() const { return handlers_; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char times[96];
      std::snprintf(times, sizeof times, "\"start_s\": %.9f, \"dur_s\": %.9f", s.start_s, s.dur_s);
      out << "  {\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", " << times << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  // since process start
    double dur_s = 0.0;
  };
  KindTotals handlers_;
  std::vector<Span> spans_;
};

// Per-layer totals of the traced pass, accumulated over its instances.
struct Layers {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;
  void add(const std::string& name, double v) { sum[name] += v; }
  void peak(const std::string& name, double v) { max[name] = std::max(max[name], v); }
};

// ---------------------------------------------------------------------------
// One instance: topology, set-up convergence, measured phase, evaluation.

struct Instance {
  double setup_s = 0.0;
  double run_s = 0.0;
  double eval_s = 0.0;       // mean over the evaluation repeats
  double run_until_s = 0.0;  // every run_until, set-up and measured phase
  // Reference kernel timed after every step of an untraced pass.
  double reference_s = 0.0;
  int references = 0;
  // Quality, deterministic for a seed.
  double delivery = 0.0;
  double tx_ratio = 0.0;
  double dt_accuracy = 0.0;
  double storage = 0.0;
  double msgs_per_node = 0.0;
  std::uint64_t messages_sent = 0;  // whole instance
  std::uint64_t measured_hops = 0;  // transmissions in the measured phase
  // Sharded-engine figures (Simulator::sharded_stats); 1 shard when serial.
  int shards = 1;
  std::uint64_t outbox_peak = 0;
  std::uint64_t outbox_grows = 0;
};

// Output checks: every one made counts as an attempted operation, every one
// that fails as a failed operation, and any failure makes the run incorrect.
struct Checks {
  long made = 0;
  std::vector<std::string> failed;
};

struct Context {
  const Workload& w;
  Checks& checks;
  Tracer* tracer = nullptr;  // both null on untraced passes
  Layers* layers = nullptr;

  void check(bool ok, const std::string& what) const {
    ++checks.made;
    if (!ok) checks.failed.push_back(w.name + ": " + what);
  }
};

// Samples per-node candidate-set sizes and the engine backlog.
void sample_state(const Context& cx, eval::VpodRunner& runner) {
  const mdt::MdtOverlay& overlay = runner.protocol().overlay();
  for (int u = 0; u < runner.net().size(); ++u) {
    if (!runner.net().alive(u) || !overlay.active(u)) continue;
    const auto c = static_cast<double>(overlay.candidate_ids(u).size());
    cx.layers->add("cand.sum", c);
    cx.layers->add("cand.samples", 1.0);
    cx.layers->peak("mdt.candidates_per_node.max", c);
  }
  cx.layers->peak("sim.pending_peak", static_cast<double>(runner.simulator().pending()));
}

// Times the reference kernel once into r (untraced passes only).
void sample_reference(const Context& cx, Instance& r) {
  if (cx.tracer) return;
  r.reference_s += reference_kernel_s();
  ++r.references;
}

// Advances to period k and returns its wall time. Traced passes record a span
// for the period with its handler time per kind and its recompute time as
// children.
double run_period(const Context& cx, eval::VpodRunner& runner, int k, int parent, Instance& r) {
  Tracer* tr = cx.tracer;
  KindTotals before{};
  double recompute_before = 0.0;
  if (tr) {
    before = tr->handler_totals();
    recompute_before = read_profile()["mdt.recompute"].s;
  }
  const double start = since(kOrigin);
  const Clock::time_point t0 = Clock::now();
  runner.run_to_period(k);
  const double dur = since(t0);
  r.run_until_s += dur;
  sample_reference(cx, r);
  if (!tr) return dur;

  const int span = tr->add("period " + std::to_string(k), parent, start, dur);
  const KindTotals after = tr->handler_totals();
  for (std::size_t kind = 0; kind < kKinds; ++kind)
    if (after.calls[kind] != before.calls[kind])
      tr->add(std::string("mdt.handle.") + kKindNames[kind], span, start,
              static_cast<double>(after.ns[kind] - before.ns[kind]) / 1e9);
  tr->add("mdt.recompute", span, start, read_profile()["mdt.recompute"].s - recompute_before);
  sample_state(cx, runner);
  return dur;
}

struct LiveOutcome {
  long sent = 0;
  long delivered = 0;
  std::uint64_t data_hops = 0;
  std::uint64_t messages_sent = 0;  // network total when the drain ended
};

std::uint64_t data_hops(const vpod::LiveGdv& live) {
  std::uint64_t hops = 0;
  for (long id = 1; id <= live.sent_count(); ++id)
    hops += static_cast<std::uint64_t>(live.status(static_cast<std::uint64_t>(id)).transmissions);
  return hops;
}

// Open-loop live GDV: uniform random pairs from the seed, injected on a fixed
// simulated-time schedule (the generator never waits for deliveries), then a
// drain. Only the injection window and the drain count as the measured
// phase; the settling run to the next period boundary after it does not.
LiveOutcome run_live(const Context& cx, eval::VpodRunner& runner, std::uint64_t seed, int parent,
                     Instance& r) {
  const Workload& w = cx.w;
  sim::Simulator& sim = runner.simulator();
  vpod::LiveGdv live(runner.net(), runner.protocol());
  const int n = runner.net().size();
  Rng rng(seed ^ 0x6A09E667F3BCC909ull);
  const double t0 = sim.now();
  const long total = std::lround(w.live_rate * kLiveCycleS);
  long injected = 0;
  std::function<void()> inject = [&] {
    const int s = rng.uniform_index(n);
    int t = rng.uniform_index(n - 1);
    if (t >= s) ++t;
    live.send_packet(s, t);
    if (cx.layers && injected % 1024 == 0)
      cx.layers->peak("sim.pending_peak", static_cast<double>(sim.pending()));
    if (++injected < total) sim.schedule_at(t0 + static_cast<double>(injected) / w.live_rate, inject);
  };
  sim.schedule_at(t0, inject);

  // Stepping run_until processes exactly the events one call would.
  const double start = since(kOrigin);
  const int steps = static_cast<int>(std::lround((kLiveCycleS + kDrainS) / kLiveStepS));
  for (int step = 1; step <= steps; ++step) {
    const Clock::time_point wall = Clock::now();
    sim.run_until(t0 + step * kLiveStepS);
    r.run_s += since(wall);
    sample_reference(cx, r);
  }
  r.run_until_s += r.run_s;
  if (cx.tracer) cx.tracer->add("live.inject_and_drain", parent, start, r.run_s);

  LiveOutcome out;
  out.sent = live.sent_count();
  out.delivered = live.delivered_count();
  out.data_hops = data_hops(live);
  out.messages_sent = runner.net().total_messages_sent();
  // Once drained, no packet is in flight: each one was delivered or dropped.
  // Settling to a period boundary also puts the evaluation where the other
  // workloads take it, after a J period.
  run_period(cx, runner, w.last_period, parent, r);
  cx.check(data_hops(live) == out.data_hops && live.delivered_count() == out.delivered,
           "data packets still in flight after the drain");
  cx.check(out.sent == total, "injected " + std::to_string(out.sent) + " of " +
                                  std::to_string(total) + " packets");
  // Hand the receiver back to the protocol before `live` goes away.
  vpod::Vpod& vpod = runner.protocol();
  runner.net().set_receiver(
      [&vpod](int to, int from, mdt::Envelope msg) { vpod.handle(to, from, std::move(msg)); });
  return out;
}

Instance run_instance(const Context& cx, std::uint64_t seed, bool sharded) {
  const Workload& w = cx.w;
  Tracer* tr = cx.tracer;
  Layers* ly = cx.layers;
  Instance r;
  select_engine(sharded);
  const int root = tr ? tr->begin(w.name + " seed " + std::to_string(seed), -1) : -1;

  // --- set-up: topology, plus warm-up convergence where the workload has one
  const Clock::time_point t_setup = Clock::now();
  const int setup_span = tr ? tr->begin("setup", root) : -1;
  const double topo_start = since(kOrigin);
  const radio::Topology topo = make_topology(w.nodes, seed);
  const double topology_s = since(t_setup);
  vpod::VpodConfig vc;  // paper defaults: 3-D virtual space, cc = 0.1, ETX
  eval::VpodRunner runner(topo, radio::Metric::kEtx, vc, {}, seed);
  r.setup_s = since(t_setup);
  sample_reference(cx, r);
  if (tr) {
    tr->add("radio.topology", setup_span, topo_start, topology_s);
    tr->wrap_receiver(runner);
  }
  for (int k = 0; k <= w.warm_periods; ++k) r.setup_s += run_period(cx, runner, k, setup_span, r);
  if (tr) tr->end(setup_span);
  if (ly) {
    ly->add("radio.topology_s", topology_s);
    ly->add("radio.links", static_cast<double>(topo.etx.edge_count() / 2));
    ly->peak("mem.rss_mb.setup", current_rss_mb());
  }

  // --- measured phase
  mdt::Net& net = runner.net();
  const std::uint64_t sent_before = net.total_messages_sent();
  const int run_span = tr ? tr->begin("run", root) : -1;
  LiveOutcome live;
  if (w.live) {
    live = run_live(cx, runner, seed, run_span, r);
    r.measured_hops = live.messages_sent - sent_before;
  } else {
    for (int k = w.warm_periods + 1; k <= w.last_period; ++k)
      r.run_s += run_period(cx, runner, k, run_span, r);
    r.measured_hops = net.total_messages_sent() - sent_before;
  }
  if (tr) tr->end(run_span);
  if (ly) ly->peak("mem.rss_mb.run", current_rss_mb());

  // --- evaluation over every ordered pair: snapshot, then GDV on VPoD,
  // MDT-greedy and NADV on the actual positions. It runs kEvalRepeats times
  // with identical results each time.
  const int eval_span = tr ? tr->begin("eval", root) : -1;
  auto timed = [&](const char* name, auto&& fn) {
    const double start = since(kOrigin);
    const Clock::time_point t0 = Clock::now();
    auto result = fn();
    const double dur = since(t0);
    if (tr) tr->add(name, eval_span, start, dur);
    if (ly) ly->add(std::string(name) + ".s", dur);
    return result;
  };
  eval::EvalOptions opts;
  opts.pair_samples = 0;
  opts.use_etx = true;
  eval::RoutingStats gdv, mdt, nadv;
  const int repeats = tr ? 1 : kEvalRepeats;
  const Clock::time_point t_eval = Clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    const routing::MdtView view = timed("routing.snapshot", [&] { return runner.snapshot(); });
    gdv = timed("eval.gdv", [&] { return eval::eval_gdv(view, topo, opts); });
    mdt = timed("eval.mdt_actual", [&] { return eval::eval_mdt_actual(topo, opts); });
    nadv = timed("eval.nadv_actual", [&] { return eval::eval_nadv_actual(topo, opts); });
  }
  r.eval_s = since(t_eval) / repeats;
  sample_reference(cx, r);
  const eval::InvariantReport audit =
      timed("eval.audit", [&] { return eval::audit_invariants(runner, {0, seed}); });
  if (tr) tr->end(eval_span);

  // --- output checks
  cx.check(audit.link_liveness == 1.0, "virtual-link liveness " + std::to_string(audit.link_liveness));
  cx.check(audit.joined_nodes == audit.alive_nodes && audit.alive_nodes == topo.size(),
           std::to_string(audit.joined_nodes) + " of " + std::to_string(topo.size()) + " nodes joined");
  const int pairs = topo.size() * (topo.size() - 1);
  cx.check(gdv.pairs_evaluated == pairs && mdt.pairs_evaluated == pairs &&
               nadv.pairs_evaluated == pairs,
           "evaluated pair count differs from the sample");
  // Greedy routing on the centralized DT of the actual positions always
  // delivers; anything else means the evaluation itself is broken.
  cx.check(mdt.success_rate == 1.0, "MDT-greedy on actual positions failed to deliver");
  cx.check(gdv.transmissions >= gdv.optimal_transmissions && gdv.optimal_transmissions > 0.0,
           "GDV transmissions below the optimum");

  r.delivery = w.live ? static_cast<double>(live.delivered) / static_cast<double>(live.sent)
                      : gdv.success_rate;
  r.tx_ratio = gdv.transmissions / gdv.optimal_transmissions;
  r.dt_accuracy = audit.dt_accuracy;
  r.storage = runner.avg_storage();
  r.messages_sent = net.total_messages_sent();
  r.msgs_per_node = static_cast<double>(r.measured_hops - live.data_hops) / topo.size();
  const sim::Simulator& sim = runner.simulator();
  r.shards = sim.shard_count();
  r.outbox_peak = sim.sharded_stats().outbox_peak;
  r.outbox_grows = sim.sharded_stats().outbox_grows;

  if (ly) {
    ly->peak("mem.rss_mb.eval", current_rss_mb());
    ly->add("eval.pairs", gdv.pairs_evaluated + mdt.pairs_evaluated + nadv.pairs_evaluated);
    ly->add("sim.run_until_s", r.run_until_s);
    ly->add("net.messages_sent", static_cast<double>(r.messages_sent));
    const KindTotals h = tr->handler_totals();
    for (std::size_t k = 0; k < kKinds; ++k) {
      const std::string base = std::string("mdt.handle.") + kKindNames[k];
      ly->add(base + ".calls", static_cast<double>(h.calls[k]));
      ly->add(base + ".s", static_cast<double>(h.ns[k]) / 1e9);
      ly->add("handlers.s", static_cast<double>(h.ns[k]) / 1e9);
    }
    const mdt::MdtOverlay& overlay = runner.protocol().overlay();
    ly->add("mdt.sync_requests", static_cast<double>(overlay.sync_stats().requests));
    ly->add("mdt.sync_failures", static_cast<double>(overlay.sync_stats().failures));
    ly->add("mdt.recompute_stat_calls", static_cast<double>(overlay.recompute_stats().calls));
    ly->add("mdt.recompute_rebuilds", static_cast<double>(overlay.recompute_stats().rebuilds));
    const geom::DynamicDtStats dt = overlay.dt_stats();
    ly->add("mdt.dt.inserts", static_cast<double>(dt.inserts));
    ly->add("mdt.dt.removes", static_cast<double>(dt.removes));
    ly->add("mdt.dt.moves", static_cast<double>(dt.moves));
    ly->add("mdt.dt.move_early_outs", static_cast<double>(dt.move_early_outs));
    ly->add("mdt.dt.full_rebuilds", static_cast<double>(dt.full_rebuilds));
    ly->add("mdt.dt.walk_fallbacks", static_cast<double>(dt.walk_fallbacks));
    ly->add("vpod.adjustments", static_cast<double>(runner.protocol().adjustments()));
    ly->add("live.packets", static_cast<double>(live.sent));
    ly->add("live.data_hops", static_cast<double>(live.data_hops));
    ly->add("live.dropped", static_cast<double>(live.sent - live.delivered));
  }
  if (tr) tr->end(root);
  std::fprintf(stderr,
               "%s seed %llu%s: setup %.4f s, run %.4f s, eval %.4f s, delivery %.4f, "
               "tx_ratio %.4f, dt_accuracy %.4f, storage %.2f, msgs/node %.1f\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), sharded ? " (sharded)" : "",
               r.setup_s, r.run_s, r.eval_s, r.delivery, r.tx_ratio, r.dt_accuracy, r.storage,
               r.msgs_per_node);
  return r;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// `replay` is the sharded replay of the first instance (default-constructed,
// i.e. one shard, when the workload has none).
std::vector<Metric> layer_metrics(const Layers& ly, const Instance& replay, double parallel_speedup,
                                  double trace_overhead) {
  auto s = [&](const std::string& k) {
    const auto it = ly.sum.find(k);
    return it == ly.sum.end() ? 0.0 : it->second;
  };
  auto m = [&](const std::string& k) {
    const auto it = ly.max.find(k);
    return it == ly.max.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const std::map<std::string, ProfileRow> prof = read_profile();
  auto p = [&](const std::string& k) {
    const auto it = prof.find(k);
    return it == prof.end() ? ProfileRow{} : it->second;
  };

  std::vector<Metric> out;
  out.push_back({"radio.topology_s", s("radio.topology_s"), "s"});
  out.push_back({"radio.links", s("radio.links"), "count"});

  const double run_until = s("sim.run_until_s");
  const double handlers = s("handlers.s");
  const double recompute = p("mdt.recompute").s;
  const double unattributed = run_until - handlers - recompute;
  out.push_back({"sim.run_until_s", run_until, "s"});
  out.push_back({"sim.self_s", unattributed, "s"});
  out.push_back({"sim.unattributed_s", unattributed, "s"});
  out.push_back({"net.messages_sent", s("net.messages_sent"), "count"});
  out.push_back({"net.ns_per_message", ratio(run_until * 1e9, s("net.messages_sent")), "ns"});
  out.push_back({"sim.pending_peak", m("sim.pending_peak"), "count"});
  out.push_back({"sim.shards", static_cast<double>(replay.shards), "count"});
  out.push_back({"sim.outbox_peak", static_cast<double>(replay.outbox_peak), "count"});
  out.push_back({"sim.outbox_grows", static_cast<double>(replay.outbox_grows), "count"});
  out.push_back({"sim.parallel_speedup", parallel_speedup, "x"});

  for (int k = 0; k < kReportedKinds; ++k) {
    const std::string base = std::string("mdt.handle.") + kKindNames[static_cast<std::size_t>(k)];
    out.push_back({base + ".calls", s(base + ".calls"), "count"});
    out.push_back({base + ".s", s(base + ".s"), "s"});
  }
  out.push_back({"mdt.handle.s", handlers, "s"});
  out.push_back({"mdt.sync_requests", s("mdt.sync_requests"), "count"});
  out.push_back({"mdt.sync_failures", s("mdt.sync_failures"), "count"});
  out.push_back({"mdt.sync_fail_ratio", ratio(s("mdt.sync_failures"), s("mdt.sync_requests")), "ratio"});

  out.push_back({"mdt.recompute.calls", p("mdt.recompute").calls, "count"});
  out.push_back({"mdt.recompute.s", recompute, "s"});
  out.push_back({"mdt.recompute_rebuilds", s("mdt.recompute_rebuilds"), "count"});
  out.push_back({"mdt.memo_hit_ratio",
                 1.0 - ratio(s("mdt.recompute_rebuilds"), s("mdt.recompute_stat_calls")), "ratio"});
  out.push_back({"mdt.candidates_per_node.mean", ratio(s("cand.sum"), s("cand.samples")), "nodes"});
  out.push_back({"mdt.candidates_per_node.max", m("mdt.candidates_per_node.max"), "nodes"});

  for (const char* op : {"build", "remove", "move"}) {
    const std::string site = std::string("geom.delaunay_") + op;
    out.push_back({site + ".calls", p(site).calls, "count"});
    out.push_back({site + ".s", p(site).s, "s"});
  }
  for (const char* c : {"inserts", "removes", "moves", "move_early_outs", "full_rebuilds",
                        "walk_fallbacks"}) {
    const std::string name = std::string("mdt.dt.") + c;
    out.push_back({name, s(name), "count"});
  }
  out.push_back({"mdt.dt.early_out_ratio", ratio(s("mdt.dt.move_early_outs"), s("mdt.dt.moves")),
                 "ratio"});

  out.push_back({"vpod.adjustments", s("vpod.adjustments"), "count"});
  out.push_back({"live.data_hops", s("live.data_hops"), "count"});
  out.push_back({"live.hops_per_packet", ratio(s("live.data_hops"), s("live.packets")), "hops"});
  out.push_back({"live.dropped", s("live.dropped"), "count"});

  out.push_back({"routing.snapshot_s", s("routing.snapshot.s"), "s"});
  out.push_back({"eval.gdv.s", s("eval.gdv.s"), "s"});
  out.push_back({"eval.mdt_actual.s", s("eval.mdt_actual.s"), "s"});
  out.push_back({"eval.nadv_actual.s", s("eval.nadv_actual.s"), "s"});
  out.push_back({"eval.audit.s", s("eval.audit.s"), "s"});
  out.push_back({"eval.pairs", s("eval.pairs"), "count"});
  out.push_back({"graph.dijkstra.calls", p("graph.dijkstra").calls, "count"});
  out.push_back({"graph.dijkstra.s", p("graph.dijkstra").s, "s"});
  out.push_back({"routing.centralized_mdt.s", p("routing.centralized_mdt").s, "s"});

  for (const char* phase : {"setup", "run", "eval"}) {
    const std::string name = std::string("mem.rss_mb.") + phase;
    out.push_back({name, m(name), "MB"});
  }
  out.push_back({"trace.overhead", trace_overhead, "ratio"});
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--spans") a.spans = v;
    else return false;
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  Workload w;
  if (!parse(argc, argv, a) || !find_workload(a.workload, a.tiny, w)) {
    std::fprintf(stderr,
                 "usage: gdvr_bench --workload construct|maintain|forward "
                 "--seed N [--seconds S] [--trace 0|1] [--spans FILE] [--tiny]\n");
    return 2;
  }
  std::printf("gdvr_bench workload=%s seed=%llu nodes=%d build=%s\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), w.nodes, GDVR_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  Checks checks;
  const Context untraced{w, checks};
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < w.instances; ++i) seeds.push_back(1000 * a.seed + static_cast<std::uint64_t>(i));

  // One pass runs every instance once. The identical inputs run again, at
  // least kMinPasses times and then while --seconds leave room for another
  // pass. Quality metrics come from the first pass, which every later pass
  // must reproduce exactly. A traced invocation makes one untraced pass.
  auto run_pass = [&](const Context& cx) {
    std::vector<Instance> pass;
    for (std::uint64_t seed : seeds) pass.push_back(run_instance(cx, seed, false));
    return pass;
  };
  std::vector<std::vector<Instance>> passes;
  const Clock::time_point t_passes = Clock::now();
  do {
    passes.push_back(run_pass(untraced));
  } while (!a.trace &&
           (passes.size() < kMinPasses || since(t_passes) * static_cast<double>(passes.size() + 1) /
                                                  static_cast<double>(passes.size()) <=
                                              a.seconds));
  const std::vector<Instance>& first = passes.front();
  for (const std::vector<Instance>& pass : passes)
    for (std::size_t i = 0; i < seeds.size(); ++i)
      untraced.check(pass[i].messages_sent == first[i].messages_sent &&
                         pass[i].dt_accuracy == first[i].dt_accuracy &&
                         pass[i].tx_ratio == first[i].tx_ratio,
                     "a repeated pass diverged from the first");

  // Each pass's reference-kernel time gives the factor that scales its wall
  // times to the reference host (see kReferenceS).
  std::vector<double> scale;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    double reference_s = 0.0, run_s = 0.0;
    int references = 0;
    for (const Instance& i : passes[p]) {
      reference_s += i.reference_s;
      references += i.references;
      run_s += i.run_s;
    }
    const double mean_ms = 1e3 * reference_s / references;
    scale.push_back(kReferenceS * 1e3 / mean_ms);
    const double mean_run_s = run_s / static_cast<double>(seeds.size());
    std::fprintf(stderr, "pass %zu: reference kernel %.4f ms, scale %.4f, run %.4f s raw, %.4f s scaled\n",
                 p, mean_ms, scale.back(), mean_run_s, scale.back() * mean_run_s);
  }
  // A timing is the mean over the instances of one pass, scaled, and then
  // the median over the passes.
  auto calibrated = [&](double Instance::* field) {
    std::vector<double> per_pass;
    for (std::size_t p = 0; p < passes.size(); ++p) {
      double total = 0.0;
      for (const Instance& i : passes[p]) total += i.*field;
      per_pass.push_back(scale[p] * total / static_cast<double>(seeds.size()));
    }
    return median(per_pass);
  };
  auto mean_of = [&](auto&& value) {
    double total = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) total += value(i);
    return total / static_cast<double>(seeds.size());
  };
  const double run_s = calibrated(&Instance::run_s);

  // The sharded engine must reproduce the serial oracle exactly: replay the
  // first instance on it (untimed) and compare.
  Instance replay;
  double parallel_speedup = 1.0;
  if (w.sharded_replay) {
    replay = run_instance(untraced, seeds[0], true);
    const Instance& serial = first[0];
    untraced.check(replay.messages_sent == serial.messages_sent,
                   "sharded message count differs from serial");
    untraced.check(replay.delivery == serial.delivery && replay.tx_ratio == serial.tx_ratio &&
                       replay.dt_accuracy == serial.dt_accuracy &&
                       replay.storage == serial.storage &&
                       replay.msgs_per_node == serial.msgs_per_node,
                   "sharded quality metrics differ from serial");
    parallel_speedup = serial.run_s / replay.run_s;
  }

  std::vector<Metric> metrics;
  if (a.trace) {
    Tracer tracer;
    Layers layers;
    obs::reset_profile();
    obs::set_profiling(true);
    const Context traced{w, checks, &tracer, &layers};
    const std::vector<Instance> traced_pass = run_pass(traced);
    obs::set_profiling(false);
    // Overhead compares raw wall times of the one untraced and the traced pass.
    double traced_run_s = 0.0, untraced_run_s = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      traced.check(traced_pass[i].messages_sent == first[i].messages_sent,
                   "traced pass diverged from untraced");
      traced_run_s += traced_pass[i].run_s;
      untraced_run_s += first[i].run_s;
    }
    metrics = layer_metrics(layers, replay, parallel_speedup, traced_run_s / untraced_run_s);
    if (!a.spans.empty()) tracer.write(a.spans);
  } else {
    double hops = 0.0;
    for (const Instance& i : first) hops += static_cast<double>(i.measured_hops);
    auto quality = [&](double Instance::* field) {
      return mean_of([&](std::size_t i) { return first[i].*field; });
    };
    metrics = {
        {"setup_s", calibrated(&Instance::setup_s), "s"},
        {"run_s", run_s, "s"},
        {"eval_s", calibrated(&Instance::eval_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"hops_per_s", hops / (run_s * static_cast<double>(seeds.size())), "1/s"},
        {"delivery", quality(&Instance::delivery), "fraction"},
        {"tx_ratio", quality(&Instance::tx_ratio), "ratio"},
        {"dt_accuracy", quality(&Instance::dt_accuracy), "fraction"},
        {"storage", quality(&Instance::storage), "nodes"},
        {"msgs_per_node", quality(&Instance::msgs_per_node), "msgs"},
    };
  }
  for (const std::string& f : checks.failed) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  print_result(checks.failed.empty(), checks.made, static_cast<long>(checks.failed.size()), metrics);
  return 0;
}
