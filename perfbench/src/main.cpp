// perfbench runner: runs one workload's figure sweep through exec::run_sweep,
// times it, checks every output, and prints one JSON record on the last line
// of stdout for run.py to reduce. Usage:
//
//   perfbench --workload NAME [--seed N] [--seconds T] [--trace 0|1]
//
// --trace 0 times untraced sweeps for at least T seconds, each followed by
// set-up campaigns (make_machine + calibrate). --trace 1 also runs traced
// sweeps on decorator machines (traced.hpp), an obs-on counting pass and,
// when the workload runs with planes on, sweeps with each instrumentation
// plane alone, and reports the per-layer split. Either way every cell's
// output is checked against algos::ref and every sweep's simulated µs
// against the first; run.py compares the simulated µs and the Table-1
// parameters against the checked-in reference.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate/calibrate.hpp"
#include "exec/sweep.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace machines = pcm::machines;

constexpr int kMinSweeps = 5;          // timed sweeps per run, at least
constexpr int kMinSetups = 8;          // set-up campaigns per run, at least
constexpr double kSetupShare = 0.15;   // set-up seconds per timed sweep second
constexpr int kTraced = 3;             // traced sweeps per traced run

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds T] "
               "[--trace 0|1]\n"
            << "workloads: " << workload_names() << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = find_workload(v);
      if (a.workload == nullptr) usage("unknown workload '" + v + "'");
      continue;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      continue;
    } else {
      usage("unknown flag " + flag);
    }
    if (end == nullptr || *end != '\0' || v.empty() || v[0] == '-') {
      usage("malformed value for " + flag + ": '" + v + "'");
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!a.seed_given) a.seed = a.workload->machine.seed;
  return a;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Attempts and failures of every check the run makes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

struct SweepOutcome {
  double wall_s = 0;
  std::vector<double> us;  ///< Per x; NaN where the cell failed.
  pcm::obs::SweepMetrics metrics;
};

/// One run_sweep of the workload. With a ledger the cells run on traced
/// machines instead of the factory machine the engine built. Every cell's
/// output is checked after the sweep, outside the timed region.
SweepOutcome sweep(const Workload& w, Instance& inst, unsigned planes,
                   Ledger* ledger, Tally& tally, const std::string& label) {
  pcm::exec::SweepSpec spec;
  spec.experiment = w.name;
  spec.x_label = "x";
  spec.machine = w.machine;
  spec.xs = w.xs;
  spec.trials = 1;
  spec.jobs = 1;
  spec.measure = [&](pcm::exec::TrialContext& ctx) {
    const auto xi = static_cast<std::size_t>(
        std::find(w.xs.begin(), w.xs.end(), ctx.x) - w.xs.begin());
    if (ledger == nullptr) return inst.run(ctx.machine, xi);
    const auto t0 = Clock::now();
    machines::MachineSpec ms = w.machine;
    ms.seed = ctx.cell_seed;
    const auto m = make_traced_machine(ms, *ledger);
    ledger->build_s += seconds_since(t0);
    const double us = inst.run(*m, xi);
    ledger->cell_s += seconds_since(t0);
    return us;
  };

  SweepOutcome out;
  pcm::exec::SweepResult r;
  {
    PlaneScope scope(planes);
    tally.add(scope.ok(), label + ": a requested plane is compiled out");
    const auto t0 = Clock::now();
    r = pcm::exec::run_sweep(spec);
    out.wall_s = seconds_since(t0);
  }
  out.metrics = r.metrics;
  out.us.assign(w.xs.size(), std::nan(""));
  for (std::size_t xi = 0; xi < w.xs.size(); ++xi) {
    const std::string cell = label + " x=" + std::to_string(w.xs[xi]);
    const auto failure =
        std::find_if(r.failures.begin(), r.failures.end(),
                     [&](const auto& f) { return f.cell == xi; });
    if (failure != r.failures.end()) {
      tally.add(false, cell + ": " + failure->kind + ": " + failure->message);
      continue;
    }
    const std::string err = inst.check(xi);
    tally.add(err.empty(), cell + ": " + err);
    if (err.empty()) out.us[xi] = r.series.points[xi].measured.mean;
  }
  return out;
}

/// Count a failure for every cell whose simulated µs differs bitwise from
/// `want` (the run's first sweep).
void expect_same_us(const std::vector<double>& want,
                    const std::vector<double>& got, Tally& tally,
                    const std::string& label) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool same = std::memcmp(&want[i], &got[i], sizeof(double)) == 0;
    tally.add(same, label + " cell " + std::to_string(i) + ": simulated " +
                        hex(got[i]) + " us, first sweep " + hex(want[i]));
  }
}

std::vector<std::pair<std::string, std::string>> param_fields(
    const pcm::models::MachineModelParams& p) {
  const auto& e = p.ebsp;
  return {{"machine", p.machine},
          {"bsp.P", std::to_string(p.bsp.P)},
          {"bsp.g", hex(p.bsp.g)},
          {"bsp.L", hex(p.bsp.L)},
          {"bsp.word_bytes", std::to_string(p.bsp.word_bytes)},
          {"bpram.P", std::to_string(p.bpram.P)},
          {"bpram.sigma", hex(p.bpram.sigma)},
          {"bpram.ell", hex(p.bpram.ell)},
          {"ebsp.bsp.P", std::to_string(e.bsp.P)},
          {"ebsp.bsp.g", hex(e.bsp.g)},
          {"ebsp.bsp.L", hex(e.bsp.L)},
          {"ebsp.t_unb.a", hex(e.t_unb.a)},
          {"ebsp.t_unb.b", hex(e.t_unb.b)},
          {"ebsp.t_unb.c", hex(e.t_unb.c)},
          {"ebsp.g_mscat", hex(e.g_mscat)},
          {"ebsp.t_unb_local.a", hex(e.t_unb_local.a)},
          {"ebsp.t_unb_local.b", hex(e.t_unb_local.b)},
          {"ebsp.t_unb_local.c", hex(e.t_unb_local.c)},
          {"ebsp.locality", std::to_string(e.locality)}};
}

struct Setup {
  std::vector<double> setup_s;  ///< make_machine + calibrate, per rep.
  std::vector<double> build_s;  ///< make_machine alone, per rep.
  std::vector<std::pair<std::string, std::string>> params;
};

/// One set-up campaign: the workload's machine built and calibrated with
/// the default (full Table-1) options. Every campaign must fit the same
/// Table-1 parameters as the first.
void setup_campaign(const Workload& w, Setup& s, Tally& tally) {
  const auto t0 = Clock::now();
  const auto m = machines::make_machine(w.machine);
  const double build = seconds_since(t0);
  const auto params = pcm::calibrate::calibrate(*m);
  s.setup_s.push_back(seconds_since(t0));
  s.build_s.push_back(build);
  auto fields = param_fields(params);
  if (s.setup_s.size() == 1) {
    s.params = std::move(fields);
  } else {
    tally.add(fields == s.params,
              "calibration " + std::to_string(s.setup_s.size() - 1) +
                  " fitted different Table-1 parameters");
  }
}

/// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss it
/// starts afresh at exec, so the launching interpreter's footprint is not
/// counted.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::nan("");
}

// --- JSON output -----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
    } else {
      q += c;
    }
  }
  return q + "\"";
}

std::string num(double v) {
  std::ostringstream o;
  o.precision(17);
  o << v;
  return o.str();
}

std::string num_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

std::string cells_json(const Workload& w, const std::vector<double>& us) {
  std::string s = "{";
  for (std::size_t i = 0; i < us.size(); ++i) {
    s += (i ? ", " : "") + quote(num(w.xs[i])) + ": " + quote(hex(us[i]));
  }
  return s + "}";
}

std::uint64_t counter(const pcm::obs::SweepMetrics& m, const char* name) {
  const auto* e = m.totals.find(name);
  return e != nullptr ? e->value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;
  Tally tally;

  // One untimed warm-up sweep (heap growth, first-touch page faults), whose
  // simulated µs every later sweep must reproduce.
  const auto inst = w.instantiate(w, args.seed);
  const std::vector<double> first_us =
      sweep(w, *inst, w.planes, nullptr, tally, "warm-up sweep").us;
  // Read before any set-up campaign, so it is the sweep's footprint.
  const double rss_mb = peak_rss_mb();

  // Timed, untraced sweeps: at least kMinSweeps, and at least --seconds.
  // After each one, set-up campaigns for kSetupShare of its time (at least
  // one), so the set-up sample spans the whole run as the sweeps do and host
  // speed that drifts within a run hits both alike; then at least kMinSetups.
  Setup setup;
  std::vector<double> sweep_s;
  const auto loop_start = Clock::now();
  while (static_cast<int>(sweep_s.size()) < kMinSweeps ||
         seconds_since(loop_start) < args.seconds) {
    const auto label = "sweep " + std::to_string(sweep_s.size());
    const auto r = sweep(w, *inst, w.planes, nullptr, tally, label);
    sweep_s.push_back(r.wall_s);
    expect_same_us(first_us, r.us, tally, label);
    const auto setup_start = Clock::now();
    do {
      setup_campaign(w, setup, tally);
    } while (seconds_since(setup_start) < kSetupShare * r.wall_s);
  }
  while (static_cast<int>(setup.setup_s.size()) < kMinSetups) {
    setup_campaign(w, setup, tally);
  }

  std::map<std::string, double> layers;
  if (args.trace) {
    // Traced sweeps on decorator machines: same cells, same simulated µs.
    std::map<std::string, std::vector<double>> reps;
    for (int n = 0; n < kTraced; ++n) {
      Ledger l;
      const auto label = "traced sweep " + std::to_string(n);
      const auto r = sweep(w, *inst, w.planes, &l, tally, label);
      expect_same_us(first_us, r.us, tally, label);
      reps["net.route_s"].push_back(l.route_s);
      reps["net.drain_s"].push_back(l.drain_s);
      reps["net.pattern_canon_s"].push_back(l.canon_s);
      reps["net.pattern_hash_s"].push_back(l.hash_s);
      reps["machines.build_s"].push_back(l.build_s);
      reps["algos.cell_s"].push_back(l.cell_s);
      reps["algos.self_s"].push_back(l.cell_s - l.route_s - l.drain_s -
                                     l.canon_s - l.hash_s - l.build_s);
      reps["exec.overhead_s"].push_back(r.wall_s - l.cell_s);
      reps["traced_sweep_s"].push_back(r.wall_s);
      layers["net.route_calls"] = static_cast<double>(l.route_calls);
      layers["net.route_msgs"] = static_cast<double>(l.route_msgs);
      layers["net.route_bytes"] = static_cast<double>(l.route_bytes);
      layers["net.pattern_distinct"] = static_cast<double>(l.distinct);
      layers["net.memo_reuse"] =
          l.route_calls == 0 ? 0.0
                             : 1.0 - static_cast<double>(l.distinct) /
                                         static_cast<double>(l.route_calls);
    }
    for (const auto& [name, v] : reps) layers[name] = median(v);
    layers["trace.overhead_s"] =
        layers["traced_sweep_s"] - median(sweep_s);
    layers.erase("traced_sweep_s");

    // Simulated-quantity counts from an obs-on pass on factory machines.
    const auto counted = sweep(w, *inst, w.planes | kObs, nullptr,
                               tally, "obs counting sweep");
    expect_same_us(first_us, counted.us, tally, "obs counting sweep");
    const auto& m = counted.metrics;
    layers["machines.exchanges"] = counter(m, "machine.exchanges");
    layers["machines.barriers"] = counter(m, "machine.barriers");
    layers["runtime.parcels"] = counter(m, "runtime.parcels");
    layers["runtime.payload_bytes"] = counter(m, "runtime.payload_bytes");
    layers["net.delta_waves"] = counter(m, "net.delta.waves");
    layers["net.delta_conflicts"] = counter(m, "net.delta.conflicts");

    // The plane split. A workload that runs with every plane off pays
    // nothing for any of them: its planes-off time is sweep_s and each
    // plane's extra time is 0 by definition, not measured. A workload with
    // planes on runs rounds of one sweep per configuration (every plane off,
    // then each alone), interleaved so drift in host speed hits all four
    // alike: at least one round, and rounds until --seconds have passed.
    const std::pair<const char*, unsigned> configs[] = {
        {"planes.off_s", kNoPlanes},
        {"obs.on_s", kObs},
        {"audit.on_s", kAudit},
        {"race.on_s", kRace}};
    std::map<std::string, std::vector<double>> plane_s;
    if (w.planes == kNoPlanes) {
      plane_s["planes.off_s"] = sweep_s;
    } else {
      const auto planes_start = Clock::now();
      do {
        for (const auto& [name, planes] : configs) {
          const auto r = sweep(w, *inst, planes, nullptr, tally, name);
          expect_same_us(first_us, r.us, tally, name);
          plane_s[name].push_back(r.wall_s);
        }
      } while (seconds_since(planes_start) < args.seconds);
    }
    const double off_s = median(plane_s["planes.off_s"]);
    for (const auto& [name, planes] : configs) {
      if (planes == kNoPlanes) {
        layers[name] = off_s;
      } else if (w.planes == kNoPlanes) {
        layers[name] = 0.0;
      } else {
        layers[name] = median(plane_s[name]) - off_s;
      }
    }

    std::vector<double> calib;
    for (std::size_t i = 0; i < setup.setup_s.size(); ++i) {
      calib.push_back(setup.setup_s[i] - setup.build_s[i]);
    }
    layers["calibrate.s"] = median(calib);
  }

  std::string params = "{";
  for (std::size_t i = 0; i < setup.params.size(); ++i) {
    params += (i ? ", " : "") + quote(setup.params[i].first) + ": " +
              quote(setup.params[i].second);
  }
  params += "}";
  std::string errors = "[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    errors += (i ? ", " : "") + quote(tally.errors[i]);
  }
  errors += "]";
  std::string layer_json = "{";
  for (const auto& [name, v] : layers) {
    layer_json += (layer_json.size() > 1 ? ", " : "") + quote(name) + ": " +
                  num(v);
  }
  layer_json += "}";

  std::cout << "{\"workload\": " << quote(w.name)
            << ", \"seed\": " << args.seed
            << ", \"default_seed\": " << w.machine.seed
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"errors\": " << errors
            << ", \"sweep_s\": " << num_list(sweep_s)
            << ", \"setup_s\": " << num_list(setup.setup_s)
            << ", \"peak_rss_mb\": " << num(rss_mb)
            << ", \"cells\": " << cells_json(w, first_us)
            << ", \"params\": " << params
            << ", \"layers\": " << layer_json << "}" << std::endl;
  return 0;
}
