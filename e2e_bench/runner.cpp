// End-to-end benchmark runner: runs one workload through the public
// System API (Testbed → System → begin_cycle / run_subcycle / end_cycle
// for every day) and prints raw measurements as one JSON object on
// stdout. run.py builds this binary, runs it in a fresh process per
// benchmark run, checks its outputs and turns the raw numbers into the
// metrics named in BENCHMARK.json (see README.md).
//
//   e2e_runner --workload fog-daily|fog-arrivals|paper-10k --seed N
//              --seconds S [--trace 0|1] [--smoke] [--spans FILE]
//
// A "rep" is one whole workload: set-up plus the full schedule. Reps
// repeat until --seconds have elapsed, so every timing is a median over
// several identical reps. With --trace 1 the process first runs untraced
// reps (the overhead baseline), then traced reps with the program's
// obs::Recorder enabled and benchmark spans recorded around every call
// into a layer, then the direct layer probes; on fog-daily it finally
// reruns the workload with a 1-thread QoS pass to check determinism.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/recorder.hpp"

namespace {

using namespace cloudfog;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workloads ------------------------------------------------------------

struct Arm {
  std::string label;
  core::SystemConfig cfg;
  std::uint64_t seed = 0;
};

struct Workload {
  std::string name;
  core::TestbedConfig testbed;
  std::uint64_t testbed_seed = 0;
  /// Arm configs need the Testbed (fleet sizes derive from it), so each
  /// rep builds them from the Testbed it just built.
  std::function<std::vector<Arm>(const core::Testbed&)> arms;
  std::size_t qoe_arm = 0;  ///< arm whose QoE and subcycle times are reported
  sim::CycleConfig cycles;
  std::string config_string;  ///< canonical description (leanstore getConfigString idiom)
};

sim::CycleConfig make_cycles(int days, int warmup) {
  sim::CycleConfig c;
  c.total_cycles = days;
  c.warmup_cycles = warmup;
  return c;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  std::ostringstream cs;
  if (name == "fog-daily") {
    // §4.1 daily sessions at scale; fleet = 6 % of players (the paper's
    // 600/10k ratio). The only workload with a 2-thread QoS pass.
    const std::size_t players = smoke ? 20000 : 200000;
    const std::size_t fleet = players * 6 / 100;
    const int threads = 2;
    w.testbed = core::TestbedConfig::peersim(players);
    w.testbed_seed = seed;
    w.cycles = make_cycles(2, 1);
    w.arms = [fleet, seed, threads](const core::Testbed& tb) {
      core::SystemConfig cfg = core::cloudfog_advanced_config(tb, fleet);
      cfg.qos.threads = threads;
      return std::vector<Arm>{{"CloudFog/A", cfg, seed + 1}};
    };
    cs << "players=" << players << "|fleet=" << fleet << "|threads=" << threads;
  } else if (name == "fog-arrivals") {
    // §4.3.4 arrival-rate workload with provisioning on (Figs 13–15):
    // sessions span subcycles and the fleet is redeployed every window.
    const std::size_t players = smoke ? 10000 : 100000;
    const std::size_t fleet = players * 6 / 100;
    const std::size_t base_pool = fleet * 2 / 3;
    const double offpeak = smoke ? 5.0 : 50.0;
    const double peak = smoke ? 30.0 : 300.0;
    w.testbed = core::TestbedConfig::peersim(players);
    w.testbed_seed = seed;
    w.cycles = make_cycles(4, 1);
    w.arms = [=](const core::Testbed& tb) {
      core::SystemConfig cfg = core::cloudfog_advanced_config(tb, fleet);
      cfg.workload = core::WorkloadMode::kArrivalRates;
      cfg.arrivals = core::ArrivalWorkload{offpeak, peak};
      cfg.fixed_deployment = base_pool;
      cfg.qos.threads = 1;
      return std::vector<Arm>{{"CloudFog/A", cfg, seed + 1}};
    };
    cs << "players=" << players << "|fleet=" << fleet << "|base_pool=" << base_pool
       << "|offpeak_per_min=" << offpeak << "|peak_per_min=" << peak << "|threads=1";
  } else if (name == "paper-10k") {
    // The paper's own configuration: the five Fig 7 arms, seeded as
    // population_sweep does. 8 days so the weekly re-partition runs.
    const std::size_t players = smoke ? 2000 : 10000;
    w.testbed = core::TestbedConfig::peersim(players);
    w.testbed_seed = seed + players;
    w.cycles = make_cycles(8, 3);
    w.arms = [seed](const core::Testbed& tb) {
      const std::size_t sns = core::default_supernode_count(tb);
      std::vector<Arm> arms{
          {"Cloud", core::cloud_config(tb), seed + 1},
          {"CDN-45", core::cdn_config(tb, core::small_cdn_count(tb)), seed + 2},
          {"CDN", core::cdn_config(tb, sns / 2), seed + 3},
          {"CloudFog/B", core::cloudfog_basic_config(tb, sns), seed + 4},
          {"CloudFog/A", core::cloudfog_advanced_config(tb, sns), seed + 5},
      };
      for (Arm& a : arms) a.cfg.qos.threads = 1;
      return arms;
    };
    w.qoe_arm = 4;
    cs << "players=" << players << "|fleet=default|arms=Cloud,CDN-45,CDN,CloudFog/B,CloudFog/A"
       << "|threads=1";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  std::ostringstream full;
  full << w.name << "|peersim|" << cs.str() << "|days=" << w.cycles.total_cycles
       << "|warmup=" << w.cycles.warmup_cycles << "|seed=" << seed
       << (smoke ? "|smoke" : "");
  w.config_string = full.str();
  return w;
}

// ---- Spans ------------------------------------------------------------------

struct Span {
  int run = 0;
  int id = 0;
  int parent = -1;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span log, written out at exit. A null tracer records nothing
/// (the untraced reps), so timing code is shared by both kinds of rep.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int begin(int run, int parent, const char* name) {
    Span s;
    s.run = run;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return s.id;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& s : spans_) {
      out << "{\"run\":" << s.run << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    if (!out) throw std::runtime_error("short write to " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; inert when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int run, int parent, const char* name) : log_(log) {
    if (log_ != nullptr) id_ = log_->begin(run, parent, name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
};

// ---- Output digest ------------------------------------------------------------

class Digest {
 public:
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const util::RunningStats& s) {
    add(static_cast<std::uint64_t>(s.count()));
    for (double v : {s.mean(), s.variance(), s.min(), s.max(), s.p50(), s.p95(), s.p99()}) add(v);
  }
  void add(const util::SampleSet& s) {
    add(static_cast<std::uint64_t>(s.count()));
    if (s.empty()) return;
    for (double v : {s.mean(), s.percentile(0.0), s.median(), s.percentile(1.0)}) add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every simulated output of a run. server_assignment_seconds holds
/// wall-clock readings, so only its sample count enters the digest.
void digest_metrics(Digest& d, const core::RunMetrics& m) {
  for (const auto* s : {&m.response_latency_ms, &m.server_latency_ms, &m.continuity,
                        &m.satisfied_fraction, &m.mos, &m.cloud_egress_mbps,
                        &m.fog_served_fraction, &m.online_sessions, &m.fallback_residency}) {
    d.add(*s);
  }
  for (const auto* s : {&m.player_join_latency_ms, &m.supernode_join_latency_ms,
                        &m.migration_latency_ms, &m.mttr_ms}) {
    d.add(*s);
  }
  d.add(static_cast<std::uint64_t>(m.server_assignment_seconds.count()));
  for (std::uint64_t v : {m.sessions_interrupted, m.fallbacks, m.fog_returns,
                          m.migration_storm_peak}) {
    d.add(v);
  }
}

// ---- Program observability (read only) -----------------------------------------

const char* const kPhases[] = {
    "population",   "fog.discovery",  "fog.probe",    "social.cross_server", "qos.subcycle",
    "qos.rate_adapt", "provisioning", "provision.deploy", "provision.forecast",
};

const char* const kCounters[] = {
    "fog.probes_sent",    "fog.probes_qualified", "fog.capacity_asks", "fog.claims_granted",
    "fog.cloud_fallbacks", "system.player_joins", "system.player_leaves", "system.migrations",
    "rate.switch_up",     "rate.switch_down",     "reputation.ratings", "provision.windows",
};

// ---- JSON output -------------------------------------------------------------

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string num_list(const std::vector<double>& xs) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) o << (i ? "," : "") << num(xs[i]);
  o << "]";
  return o.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---- One rep -------------------------------------------------------------------

struct RepResult {
  int run = 0;  ///< span run id
  std::string error;  ///< what the rep threw; empty when it completed
  bool traced = false;
  int qos_threads = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> peak_subcycle_ms;
  std::vector<double> offpeak_subcycle_ms;
  std::string digest;          ///< RunMetrics of every arm
  std::string counter_digest;  ///< program counters (traced reps only)
  // QoE of the reported arm, and per-arm figures for the envelopes.
  double response_latency_ms = 0.0;
  double continuity = 0.0;
  double cloud_egress_mbps = 0.0;
  double fog_served_fraction = 0.0;
  std::vector<std::string> arm_labels;
  std::vector<double> arm_latency_ms;
  std::vector<double> arm_continuity;
  std::size_t online_after = 0;  ///< players still online after the schedule
  std::size_t players = 0;
  // Traced reps: program phases (total ms, call count) and counters.
  std::vector<double> phase_ms;
  std::vector<double> phase_calls;
  std::vector<double> counters;
  // Direct probes (last traced rep).
  double lookup_us = -1.0;
  double partition_s = -1.0;
};

/// Replays §3.2.1 candidate lookups for a fixed sample of the workload's
/// players against the final fleet; median over passes of µs per call.
double probe_lookup_us(const core::Testbed& tb, const core::System& sys) {
  const auto& players = tb.players();
  const std::size_t sample = std::min<std::size_t>(players.size(), 20000);
  const std::size_t stride = std::max<std::size_t>(1, players.size() / sample);
  const std::size_t k = sys.config().fog.candidate_count;
  std::vector<std::size_t> out;
  sys.cloud().candidate_supernodes_into(players[0].endpoint, sys.fleet(), k, out);  // index warm
  std::vector<double> per_call;
  for (int pass = 0; pass < 5; ++pass) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < players.size() && calls < sample; i += stride, ++calls) {
      sys.cloud().candidate_supernodes_into(players[i].endpoint, sys.fleet(), k, out);
    }
    per_call.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

struct RepOptions {
  bool traced = false;        ///< program obs::Recorder enabled
  SpanLog* spans = nullptr;   ///< benchmark spans (null: none recorded)
  int qos_threads = 0;        ///< overrides the workload's QoS threads when > 0
  bool probe = false;         ///< run the direct layer probes after the schedule
};

RepResult run_rep(const Workload& w, int run_id, const RepOptions& opt) {
  auto& rec = obs::Recorder::global();
  SpanLog* spans = opt.spans;
  RepResult r;
  r.run = run_id;
  r.traced = opt.traced;
  rec.reset();
  rec.set_enabled(r.traced);

  // Declared outside the rep span, so teardown stays out of it: the rep
  // span covers exactly set-up plus schedule, the wall its children share.
  std::unique_ptr<core::Testbed> tb;
  std::vector<std::unique_ptr<core::System>> systems;
  std::vector<Arm> arms;
  {
    const ScopedSpan root(spans, run_id, -1, "rep");
    const auto t_setup = Clock::now();
    {
      const ScopedSpan setup(spans, run_id, root.id(), "setup");
      {
        const ScopedSpan s(spans, run_id, setup.id(), "testbed.build");
        tb = std::make_unique<core::Testbed>(w.testbed, w.testbed_seed);
      }
      arms = w.arms(*tb);
      for (Arm& a : arms) {
        if (opt.qos_threads > 0) a.cfg.qos.threads = opt.qos_threads;
        const ScopedSpan s(spans, run_id, setup.id(), "system.ctor");
        systems.push_back(std::make_unique<core::System>(*tb, a.cfg, a.seed));
      }
    }
    r.setup_s = seconds_since(t_setup);
    r.qos_threads = arms[w.qoe_arm].cfg.qos.threads;

    const sim::CycleConfig& c = w.cycles;
    const auto t_run = Clock::now();
    for (std::size_t a = 0; a < systems.size(); ++a) {
      core::System& sys = *systems[a];
      const ScopedSpan sched(spans, run_id, root.id(), "schedule");
      for (int day = 1; day <= c.total_cycles; ++day) {
        const bool warmup = day <= c.warmup_cycles;
        {
          const ScopedSpan s(spans, run_id, sched.id(), "cycle.begin");
          sys.begin_cycle(day);
        }
        for (int sub = 1; sub <= c.subcycles_per_cycle; ++sub) {
          const bool peak = sub >= c.peak_start_subcycle && sub <= c.peak_end_subcycle;
          const ScopedSpan s(spans, run_id, sched.id(), "subcycle");
          const auto t0 = Clock::now();
          sys.run_subcycle(day, sub, warmup, peak);
          if (a == w.qoe_arm && day > 1) {
            (peak ? r.peak_subcycle_ms : r.offpeak_subcycle_ms).push_back(seconds_since(t0) * 1e3);
          }
        }
        {
          const ScopedSpan s(spans, run_id, sched.id(), "cycle.end");
          sys.end_cycle(day);
        }
      }
    }
    r.run_s = seconds_since(t_run);
  }

  Digest d;
  for (std::size_t a = 0; a < systems.size(); ++a) {
    const core::RunMetrics& m = systems[a]->metrics();
    digest_metrics(d, m);
    r.arm_labels.push_back(arms[a].label);
    r.arm_latency_ms.push_back(m.response_latency_ms.mean());
    r.arm_continuity.push_back(m.continuity.mean());
  }
  r.digest = d.hex();
  const core::System& qoe = *systems[w.qoe_arm];
  const core::RunMetrics& m = qoe.metrics();
  r.response_latency_ms = m.response_latency_ms.mean();
  r.continuity = m.continuity.mean();
  r.cloud_egress_mbps = m.cloud_egress_mbps.mean();
  r.fog_served_fraction = m.fog_served_fraction.mean();
  r.players = qoe.players().size();
  for (const auto& p : qoe.players()) r.online_after += p.online ? 1 : 0;

  if (r.traced) {
    for (const char* name : kPhases) {
      const obs::PhaseProfiler::PhaseStats* ps = rec.profiler().find(name);
      r.phase_ms.push_back(ps ? ps->total_ms() : 0.0);
      r.phase_calls.push_back(ps ? static_cast<double>(ps->count) : 0.0);
    }
    Digest cd;
    for (const char* name : kCounters) {
      const std::uint64_t v = rec.registry().counter_value(std::string_view(name));
      r.counters.push_back(static_cast<double>(v));
      cd.add(v);
    }
    r.counter_digest = cd.hex();
  }
  rec.set_enabled(false);

  if (opt.probe) {
    // Direct calls into two layers at the workload's scale, after the
    // schedule and outside the rep span.
    {
      const ScopedSpan s(spans, run_id, -1, "probe.cloud_lookup");
      r.lookup_us = probe_lookup_us(*tb, qoe);
    }
    const ScopedSpan s(spans, run_id, -1, "probe.partition");
    r.partition_s = systems[w.qoe_arm]->measure_server_assignment_seconds();
  }
  return r;
}

/// A rep that throws is a failed rep, not a failed benchmark: it is
/// reported and counted, and the remaining reps still run.
RepResult guarded_rep(const Workload& w, int run_id, const RepOptions& opt) {
  try {
    return run_rep(w, run_id, opt);
  } catch (const std::exception& e) {
    obs::Recorder::global().set_enabled(false);
    RepResult r;
    r.run = run_id;
    r.error = e.what();
    return r;
  }
}

std::string rep_json(const RepResult& r) {
  std::ostringstream o;
  if (!r.error.empty()) {
    o << "{\"run\":" << r.run << ",\"error\":" << quoted(r.error) << "}";
    return o.str();
  }
  o << "{\"run\":" << r.run << ",\"traced\":" << (r.traced ? "true" : "false") << ",\"qos_threads\":" << r.qos_threads
    << ",\"setup_s\":" << num(r.setup_s) << ",\"run_s\":" << num(r.run_s)
    << ",\"peak_subcycle_ms\":" << num_list(r.peak_subcycle_ms)
    << ",\"offpeak_subcycle_ms\":" << num_list(r.offpeak_subcycle_ms)
    << ",\"digest\":" << quoted(r.digest) << ",\"counter_digest\":" << quoted(r.counter_digest)
    << ",\"response_latency_ms\":" << num(r.response_latency_ms)
    << ",\"continuity\":" << num(r.continuity)
    << ",\"cloud_egress_mbps\":" << num(r.cloud_egress_mbps)
    << ",\"fog_served_fraction\":" << num(r.fog_served_fraction) << ",\"arms\":[";
  for (std::size_t i = 0; i < r.arm_labels.size(); ++i) {
    o << (i ? "," : "") << "{\"label\":" << quoted(r.arm_labels[i])
      << ",\"response_latency_ms\":" << num(r.arm_latency_ms[i])
      << ",\"continuity\":" << num(r.arm_continuity[i]) << "}";
  }
  o << "],\"online_after\":" << r.online_after << ",\"players\":" << r.players;
  if (r.traced) {
    o << ",\"phases\":{";
    for (std::size_t i = 0; i < std::size(kPhases); ++i) {
      o << (i ? "," : "") << quoted(kPhases[i]) << ":{\"ms\":" << num(r.phase_ms[i])
        << ",\"calls\":" << num(r.phase_calls[i]) << "}";
    }
    o << "},\"counters\":{";
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      o << (i ? "," : "") << quoted(kCounters[i]) << ":" << num(r.counters[i]);
    }
    o << "}";
  }
  if (r.lookup_us >= 0.0) o << ",\"lookup_us\":" << num(r.lookup_us);
  if (r.partition_s >= 0.0) o << ",\"partition_s\":" << num(r.partition_s);
  return o.str() + "}";
}

long status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) return std::stol(line.substr(len + 1));
  }
  return -1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (a.trace && a.spans_path.empty()) throw std::invalid_argument("--trace 1 needs --spans");
  return a;
}

int run(const Args& args) {
  const long rss_start_kib = status_kib("VmRSS:");
  const Workload w = make_workload(args.workload, args.seed, args.smoke);
  const auto epoch = Clock::now();
  SpanLog spans(epoch);
  std::vector<RepResult> reps;
  int next_run = 0;

  // Reps repeat while another one fits in the time budget; at least two
  // of each kind, so every run compares two identical reps.
  const auto repeat = [&](double budget_s, const RepOptions& opt) {
    const auto t0 = Clock::now();
    for (int n = 0;; ++n) {
      const double spent = seconds_since(t0);
      if (n >= 2 && spent + spent / n > budget_s) break;
      reps.push_back(guarded_rep(w, next_run++, opt));
    }
  };
  if (!args.trace) {
    repeat(args.seconds, RepOptions{});
  } else {
    // Half the budget untraced (the overhead baseline), half traced, plus
    // one traced rep that also runs the probes (its Systems must be alive).
    repeat(args.seconds / 2, RepOptions{});
    repeat(args.seconds / 2, RepOptions{true, &spans, 0, false});
    reps.push_back(guarded_rep(w, next_run++, RepOptions{true, &spans, 0, true}));
    if (w.name == "fog-daily") {
      // Determinism check: the same workload with a serial QoS pass.
      reps.push_back(guarded_rep(w, next_run++, RepOptions{true, nullptr, 1, false}));
    }
    spans.write(args.spans_path);
  }
  const long hwm_kib = status_kib("VmHWM:");

  std::ostringstream o;
  o << "{\"workload\":" << quoted(w.name) << ",\"config\":" << quoted(w.config_string)
    << ",\"build_type\":" << quoted(E2E_BUILD_TYPE) << ",\"cxx_flags\":" << quoted(E2E_CXX_FLAGS)
    << ",\"compiler\":" << quoted(E2E_COMPILER) << ",\"rss_start_kib\":" << rss_start_kib
    << ",\"peak_rss_kib\":" << hwm_kib << ",\"wall_s\":" << num(seconds_since(epoch))
    << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) o << (i ? ",\n" : "\n") << rep_json(reps[i]);
  o << "]}\n";
  std::fputs(o.str().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_runner: %s\n", e.what());
    return 2;
  }
}
