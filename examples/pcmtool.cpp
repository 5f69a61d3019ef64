// pcmtool — command-line driver for the library. A downstream user's entry
// point: list the paper's experiments, calibrate a simulated machine, or run
// an algorithm with measured-vs-predicted output and an optional
// compute/communication/barrier breakdown of its simulated time.
//
//   pcmtool list
//   pcmtool params
//   pcmtool calibrate <maspar|gcel|cm5> [--trials=K]
//   pcmtool matmul    <machine> [--n=256] [--variant=bpram|bsp|bsp-unstag|mp-bsp] [--breakdown]
//   pcmtool sort      <machine> [--keys-per-node=1024] [--algo=bitonic|samplesort]
//                     [--variant=block|word|word-sync (bitonic), block|packed
//                     (samplesort)] [--breakdown]
//   pcmtool apsp      <machine> [--n=128] [--breakdown]
//
// Numeric flags must be whole positive integers and --algo/--variant one of
// the listed values; anything else prints the reason and exits 2.

#include <charconv>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "algos/apsp.hpp"
#include "audit/audit.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "race/race.hpp"
#include "algos/bitonic.hpp"
#include "algos/matmul.hpp"
#include "algos/reference.hpp"
#include "algos/samplesort.hpp"
#include "calibrate/calibrate.hpp"
#include "core/registry.hpp"
#include "machines/machine.hpp"
#include "predict/apsp_predict.hpp"
#include "predict/bitonic_predict.hpp"
#include "predict/matmul_predict.hpp"
#include "report/table.hpp"
#include "sim/rng.hpp"

namespace {

using namespace pcm;

struct Options {
  std::string command;
  std::string machine;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.count(key) > 0;
  }
};

Options parse(int argc, char** argv) {
  Options o;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        o.flags[arg.substr(2)] = "1";
      } else {
        o.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else if (positional == 0) {
      o.command = arg;
      ++positional;
    } else if (positional == 1) {
      o.machine = arg;
      ++positional;
    }
  }
  return o;
}

/// Read a positive int flag: the whole value must parse with
/// std::from_chars, be > 0 and fit in int. A missing flag yields
/// `fallback`. Otherwise prints the reason and returns false (exit 2).
bool positive_flag(const Options& o, const std::string& key, int fallback,
                   int* out) {
  const auto it = o.flags.find(key);
  if (it == o.flags.end()) {
    *out = fallback;
    return true;
  }
  const std::string& text = it->second;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, *out);
  if (ec == std::errc() && ptr == last && *out > 0) return true;
  std::cerr << "pcmtool: --" << key << " expects a positive integer, got '"
            << text << "'\n";
  return false;
}

/// Store a size rounded up (in long) to the machine's decomposition into
/// `out`. A rounded size above INT_MAX prints the reason and returns false
/// (exit 2), as positive_flag does for a malformed one.
bool rounded_size(const std::string& key, int n, long rounded, int* out) {
  if (rounded <= std::numeric_limits<int>::max()) {
    *out = static_cast<int>(rounded);
    return true;
  }
  std::cerr << "pcmtool: --" << key << "=" << n << " rounds up to " << rounded
            << ", above the largest supported size "
            << std::numeric_limits<int>::max() << "\n";
  return false;
}

/// Read a flag that must be one of `choices`; a missing flag yields the
/// first. Otherwise prints the reason and returns false (exit 2).
bool choice_flag(const Options& o, const std::string& key,
                 std::initializer_list<std::string_view> choices,
                 std::string* out) {
  *out = o.get(key, std::string(*choices.begin()));
  for (const std::string_view c : choices) {
    if (*out == c) return true;
  }
  std::cerr << "pcmtool: --" << key << " expects one of";
  for (const std::string_view c : choices) std::cerr << ' ' << c;
  std::cerr << ", got '" << *out << "'\n";
  return false;
}

std::unique_ptr<machines::Machine> make_machine_named(const std::string& name,
                                                      std::uint64_t seed) {
  // Accepts full machine specs too, e.g. "gcel:procs=16:seed=7".
  try {
    auto spec = machines::parse_machine_spec(name);
    if (name.find("seed=") == std::string::npos) spec.seed = seed;
    return machines::make_machine(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "pcmtool: " << e.what() << "\n";
    return nullptr;
  }
}

// Observability output captured at the moment a command's measured workload
// finished — before any trailing calibration run resets the machine and
// would otherwise pollute (or clear) the metrics and spans.
struct ObsCapture {
  bool captured = false;
  std::string machine_name;
  obs::MetricsSnapshot metrics;
  std::vector<obs::Span> spans;
} g_obs;

void obs_capture(machines::Machine& m) {
  if (!m.metrics().on()) return;
  g_obs.captured = true;
  g_obs.machine_name = std::string(m.name());
  g_obs.metrics = m.metrics().snapshot();
  g_obs.spans = m.spans().tiled(m.now(), m.superstep());
  m.set_observing(false);
}

int usage() {
  std::cout
      << "usage: pcmtool <command> [machine] [--flags]\n"
         "  list                         the paper's experiments and benches\n"
         "  params                       published Table 1 parameters\n"
         "  calibrate <machine>          fit g/L/sigma/ell on the simulator\n"
         "  matmul <machine> [--n= --variant= --breakdown]\n"
         "  sort   <machine> [--keys-per-node= --algo= --variant= --breakdown]\n"
         "  apsp   <machine> [--n= --breakdown]\n"
         "machines: maspar, gcel, cm5, t800 — or a spec like "
         "\"gcel:procs=16:seed=7\"\n"
         "  --breakdown  split the run's simulated makespan into compute,\n"
         "               communication and barrier shares; compute is the\n"
         "               makespan not spent in exchanges or barriers\n"
         "global flags: --audit  check runtime invariants while the command\n"
         "                       runs\n"
         "              --race   check BSP superstep ordering (stale mailbox\n"
         "                       reads) while the command runs\n"
         "              --fault=SPEC  inject deterministic faults while the\n"
         "                       command runs; SPEC is kind[:rate=R]\n"
         "                       [:severity=X][:seed=S][:from=A][:to=B] with\n"
         "                       kind one of drop, dup, dead-channel, corrupt,\n"
         "                       straggler, barrier-stall\n"
         "              --metrics  print the superstep-resolved metric summary\n"
         "                       (packets, waves, conflicts, queue peaks,\n"
         "                       barrier skew)\n"
         "              --trace-out=FILE  write a Chrome trace-event JSON of\n"
         "                       the command's run (open in Perfetto or\n"
         "                       chrome://tracing)\n"
         "exit codes: 0 ok, 1 wrong output, 2 usage, 3 invariant violation\n"
         "            (AuditError), 4 superstep race (RaceError), 5 other\n"
         "            runtime failure\n";
  return 2;
}

/// The paper's Section 5 split of a run's simulated time, from the spans
/// that tile [0, makespan]: exchanges and barriers are their own spans, and
/// compute is the rest of the makespan, so the three shares sum to 100%.
void breakdown(const std::vector<obs::Span>& spans) {
  double total = 0.0, comm = 0.0, barr = 0.0;
  std::uint64_t messages = 0, bytes = 0;
  for (const auto& s : spans) {
    total += s.duration;
    if (s.kind == obs::SpanKind::Communicate) comm += s.duration;
    if (s.kind == obs::SpanKind::Barrier) barr += s.duration;
    messages += s.messages;
    bytes += s.bytes;
  }
  if (total <= 0.0) return;
  const double comp = total - comm - barr;
  std::cout << "breakdown: compute " << report::Table::num(100.0 * comp / total, 1)
            << "%, communication " << report::Table::num(100.0 * comm / total, 1)
            << "%, barriers " << report::Table::num(100.0 * barr / total, 1)
            << "%  (" << messages << " messages, " << bytes
            << " payload bytes)\n";
}

int cmd_list() {
  report::Table t({"id", "title", "platform", "bench binary"});
  for (const auto& e : core::experiments()) {
    t.add_row({e.id, e.title, e.platform, e.bench});
  }
  t.print(std::cout);
  return 0;
}

int cmd_params() {
  report::Table t({"machine", "P", "g", "L", "sigma", "ell"});
  for (const auto& p : {models::table1::maspar(), models::table1::gcel(),
                        models::table1::cm5()}) {
    t.add_row({p.machine, report::Table::num(p.bsp.P, 0),
               report::Table::num(p.bsp.g, 1), report::Table::num(p.bsp.L, 0),
               report::Table::num(p.bpram.sigma, 2),
               report::Table::num(p.bpram.ell, 0)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_calibrate(machines::Machine& m, const Options& o) {
  calibrate::CalibrationOptions opts;
  if (!positive_flag(o, "trials", 10, &opts.trials)) return 2;
  const auto p = calibrate::calibrate(m, opts);
  obs_capture(m);
  std::cout << p.machine << ": g = " << report::Table::num(p.bsp.g, 1)
            << " us, L = " << report::Table::num(p.bsp.L, 0)
            << " us, sigma = " << report::Table::num(p.bpram.sigma, 2)
            << " us/B, ell = " << report::Table::num(p.bpram.ell, 0) << " us\n";
  if (p.ebsp.t_unb.a != 0.0) {
    std::cout << "T_unb(P') = " << report::Table::num(p.ebsp.t_unb.a, 2)
              << "*P' + " << report::Table::num(p.ebsp.t_unb.b, 1)
              << "*sqrt(P') + " << report::Table::num(p.ebsp.t_unb.c, 1) << "\n";
  }
  if (p.ebsp.g_mscat > 0.0) {
    std::cout << "g_mscat = " << report::Table::num(p.ebsp.g_mscat, 0)
              << " us (factor " << report::Table::num(p.bsp.g / p.ebsp.g_mscat, 1)
              << " below g)\n";
  }
  return 0;
}

int cmd_matmul(machines::Machine& m, const Options& o) {
  int n = 0;
  std::string vname;
  if (!positive_flag(o, "n", 256, &n) ||
      !choice_flag(o, "variant", {"bpram", "bsp", "bsp-unstag", "mp-bsp"},
                   &vname)) {
    return 2;
  }
  if (!rounded_size("n", n, algos::matmul_round_n(m, n), &n)) return 2;
  algos::MatmulVariant v = algos::MatmulVariant::Bpram;
  if (vname == "bsp") v = algos::MatmulVariant::BspStaggered;
  if (vname == "bsp-unstag") v = algos::MatmulVariant::BspUnstaggered;
  if (vname == "mp-bsp") v = algos::MatmulVariant::MpBsp;

  sim::Rng rng(1);
  std::vector<double> a(static_cast<std::size_t>(n) * n), b(a.size());
  for (auto& x : a) x = rng.next_double();
  for (auto& x : b) x = rng.next_double();

  if (o.has("breakdown")) m.set_observing(true);
  const auto r = algos::run_matmul<double>(m, a, b, n, v);
  obs_capture(m);
  const auto ok = algos::ref::matmul(a, b, n);
  double diff = 0.0;
  for (std::size_t i = 0; i < ok.size(); ++i) diff = std::max(diff, std::abs(ok[i] - r.c[i]));

  calibrate::CalibrationOptions copts;
  copts.trials = 5;
  copts.fit_t_unb = false;
  copts.fit_mscat = false;
  const auto params = calibrate::calibrate(m, copts);
  const int q = algos::matmul_q(m);
  double pred = 0.0;
  if (v == algos::MatmulVariant::Bpram) {
    pred = predict::matmul_bpram(params.bpram, m.compute(), n, q, m.word_bytes());
  } else if (v == algos::MatmulVariant::MpBsp) {
    pred = predict::matmul_mp_bsp(params.bsp, m.compute(), n, q);
  } else {
    pred = predict::matmul_bsp(params.bsp, m.compute(), n, q);
  }

  std::cout << "matmul " << vname << " N=" << n << " on " << m.name() << ":\n"
            << "  measured  " << report::Table::num(r.time / 1e3, 1) << " ms ("
            << report::Table::num(r.mflops, 1) << " Mflops), max|diff| = "
            << diff << "\n  predicted " << report::Table::num(pred / 1e3, 1)
            << " ms (" << report::Table::num(100.0 * (pred - r.time) / r.time, 1)
            << "% error)\n";
  if (o.has("breakdown")) breakdown(g_obs.spans);
  return diff > 1e-6 ? 1 : 0;
}

int cmd_sort(machines::Machine& m, const Options& o) {
  int per_node = 0;
  std::string algo, vname;
  if (!positive_flag(o, "keys-per-node", 1024, &per_node) ||
      !choice_flag(o, "algo", {"bitonic", "samplesort"}, &algo)) {
    return 2;
  }
  const bool variant_ok =
      algo == "samplesort"
          ? choice_flag(o, "variant", {"block", "packed"}, &vname)
          : choice_flag(o, "variant", {"block", "word", "word-sync"}, &vname);
  if (!variant_ok) return 2;

  sim::Rng rng(2);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(per_node) *
                                  static_cast<std::size_t>(m.procs()));
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());

  if (o.has("breakdown")) m.set_observing(true);
  double time = 0.0, per_key = 0.0;
  bool sorted = false;
  if (algo == "samplesort") {
    const auto v = (vname == "packed") ? algos::SampleSortVariant::StaggeredPacked
                                       : algos::SampleSortVariant::Bpram;
    const auto r = algos::run_samplesort(m, keys, 64, v);
    time = r.time;
    per_key = r.time_per_key;
    sorted = algos::ref::is_sorted_keys(r.keys);
  } else {
    algos::BitonicVariant v = algos::BitonicVariant::Bpram;
    if (vname == "word") {
      v = (m.name().find("MasPar") != std::string_view::npos)
              ? algos::BitonicVariant::MpBsp
              : algos::BitonicVariant::Bsp;
    }
    if (vname == "word-sync") v = algos::BitonicVariant::BspSynchronized;
    const auto r = algos::run_bitonic(m, keys, v);
    time = r.time;
    per_key = r.time_per_key;
    sorted = algos::ref::is_sorted_keys(r.keys);
  }
  obs_capture(m);
  std::cout << algo << " (" << vname << ") with " << per_node
            << " keys/node on " << m.name() << ":\n  "
            << report::Table::num(time / 1e3, 1) << " ms total, "
            << report::Table::num(per_key, 1) << " us/key, "
            << (sorted ? "output sorted" : "OUTPUT NOT SORTED!") << "\n";
  if (o.has("breakdown")) breakdown(g_obs.spans);
  return sorted ? 0 : 1;
}

int cmd_apsp(machines::Machine& m, const Options& o) {
  const int s = algos::apsp_grid_side(m);
  int n = 0;
  if (!positive_flag(o, "n", 128, &n) ||
      !rounded_size("n", n, (static_cast<long>(n) + s - 1) / s * s, &n)) {
    return 2;
  }
  const auto d0 = algos::ref::random_digraph(n, 0.05, 3);
  if (o.has("breakdown")) m.set_observing(true);
  const auto v = (m.name().find("MasPar") != std::string_view::npos)
                     ? algos::ApspVariant::MpBsp
                     : algos::ApspVariant::Bsp;
  const auto r = algos::run_apsp(m, d0, n, v);
  obs_capture(m);
  const auto want = algos::ref::floyd(d0, n);
  double diff = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::abs(want[i] - r.dist[i])));
  }
  std::cout << "apsp N=" << n << " on " << m.name() << ": "
            << report::Table::num(r.time / 1e3, 1)
            << " ms, max|diff vs Floyd| = " << diff << "\n";
  if (o.has("breakdown")) breakdown(g_obs.spans);
  return diff > 0.0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto o = parse(argc, argv);
  if (o.has("audit")) audit::set_enabled(true);
  if (o.has("race")) race::set_enabled(true);
  if (o.has("fault")) {
    try {
      fault::set_plan(fault::parse_fault_plan(o.get("fault", std::string())));
    } catch (const std::invalid_argument& e) {
      std::cerr << "pcmtool: --fault: " << e.what() << "\n";
      return 2;
    }
  }
  const std::string trace_out = o.get("trace-out", std::string());
  if (o.has("metrics") || !trace_out.empty()) obs::set_enabled(true);
  if (o.command == "list") return cmd_list();
  if (o.command == "params") return cmd_params();

  if (o.command.empty()) return usage();
  auto m = make_machine_named(o.machine, 2026);
  if (m == nullptr) return usage();

  // Each detector gets its own exit code so scripts (and the CI smoke jobs)
  // can tell an invariant violation from a race from a plain failure, with a
  // one-line machine/superstep diagnostic instead of an uncaught abort.
  int rc = -1;
  try {
    if (o.command == "calibrate") rc = cmd_calibrate(*m, o);
    if (o.command == "matmul") rc = cmd_matmul(*m, o);
    if (o.command == "sort") rc = cmd_sort(*m, o);
    if (o.command == "apsp") rc = cmd_apsp(*m, o);
  } catch (const audit::AuditError& e) {
    std::cerr << "pcmtool: audit: " << e.what() << "\n";
    return 3;
  } catch (const race::RaceError& e) {
    std::cerr << "pcmtool: race: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "pcmtool: " << o.command << " failed on " << m->name()
              << " at superstep " << m->superstep() << ": " << e.what() << "\n";
    return 5;
  }
  if (rc < 0) return usage();
  if (g_obs.captured) {
    if (o.has("metrics")) obs::print_metrics(std::cout, g_obs.metrics);
    if (!trace_out.empty()) {
      if (obs::write_chrome_trace(trace_out, g_obs.machine_name, g_obs.spans)) {
        std::cout << "trace written to " << trace_out << "\n";
      } else {
        std::cerr << "pcmtool: could not write trace to " << trace_out << "\n";
        return 5;
      }
    }
  }
  return rc;
}
