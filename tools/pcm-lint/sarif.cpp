#include "sarif.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace pcm::lint {

namespace {

/// The driver's static rule table: id -> short description. Every rule that
/// can fire must be listed so SARIF results always reference a declared rule.
const std::map<std::string, std::string>& rule_table() {
  static const std::map<std::string, std::string> rules = {
      {"wallclock",
       "Host time/randomness primitive outside src/exec/; use seeded sim::Rng "
       "and simulated clocks."},
      {"determinism-taint",
       "Call chain reaches a host time/randomness primitive through helper "
       "functions the line-level wallclock rule cannot see."},
      {"unordered-iteration",
       "Iteration over a std::unordered_* container in an order-sensitive "
       "directory; hash order leaks into simulated timings."},
      {"float-time",
       "'float' in the timing core; sim::Micros is double everywhere."},
      {"assert-in-header",
       "assert() in a src/ header is stripped by NDEBUG in Release; use "
       "PCM_CHECK."},
      {"metric-in-header",
       "obs::register_metric() in a header welds metric ids to the include "
       "graph; register in a .cpp."},
      {"bare-catch",
       "catch (...) that neither rethrows nor captures "
       "std::current_exception() swallows failures silently."},
      {"include-layer",
       "Quoted #include pointing up the subsystem layer order (a backward "
       "architecture edge)."},
      {"span-invalidation",
       "A span view (CommPattern::messages()/senders()/receivers(), "
       "Arena::alloc) used after a mutating/canonicalising call on the same "
       "object invalidated it."},
      {"arena-escape",
       "Arena::alloc scratch stored into a member/static/out-parameter that "
       "survives the enclosing route()/reset() scope."},
      {"dense-scan",
       "Loop bounded by procs()/pes() in a router/machine hot function; the "
       "sparse superstep contract is O(active messages), never O(P)."},
      {"deprecated-api",
       "Call to a removed accessor on the deprecation denylist "
       "(flatten/send_counts/receive_counts)."},
      {"cost-overflow",
       "Product/shift whose interval at p<=2^20 provably exceeds the "
       "destination's narrow integer type; widen the accumulator."},
      {"narrowing-flow",
       "Implicit wide->narrow copy of a value whose interval provably does "
       "not fit the destination type."},
      {"hot-path-alloc",
       "Allocation or un-reserved container growth reachable from a "
       "route()/exchange()/barrier()/charge*() hot root."},
      {"unreachable",
       "Free function under src/ that no main in bench/, examples/, "
       "perfbench/ or tools/ reaches through the name-linked call graph."},
      {"throw-leak",
       "Tracked resource (fopen/open/watch/lock/acquire) still held when a "
       "throw escapes the function; release or use a RAII guard."},
  };
  return rules;
}

void escape_into(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  escape_into(&out, s);
  out += "\"";
  return out;
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diags,
                     const std::set<std::string>* baseline) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"pcm-lint\",\n"
      "          \"version\": \"3.0.0\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/pcm-lint\",\n"
      "          \"rules\": [\n";
  bool first = true;
  for (const auto& [id, desc] : rule_table()) {
    if (!first) out += ",\n";
    first = false;
    out += "            {\"id\": " + quoted(id) +
           ", \"shortDescription\": {\"text\": " + quoted(desc) + "}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"columnKind\": \"utf16CodeUnits\",\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i > 0) out += ",\n";
    out += "        {\n";
    out += "          \"ruleId\": " + quoted(d.rule) + ",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": " + quoted(d.message) + "},\n";
    out += "          \"locations\": [\n";
    out += "            {\"physicalLocation\": {\"artifactLocation\": {\"uri\": " +
           quoted(d.file) +
           "}, \"region\": {\"startLine\": " + std::to_string(d.line) + "}}}\n";
    out += "          ],\n";
    out += "          \"partialFingerprints\": {\"pcmLint/v1\": " +
           quoted(d.fingerprint) + "}";
    if (baseline != nullptr) {
      const bool known = baseline->count(d.fingerprint) > 0;
      out += ",\n          \"baselineState\": ";
      out += known ? "\"unchanged\"" : "\"new\"";
    }
    out += "\n        }";
  }
  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

std::set<std::string> parse_baseline(const std::string& text) {
  std::set<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // Trim, skip blanks and comments; the fingerprint is the first field so
    // annotated lines ("<fp>  src/foo.cpp wallclock") stay readable.
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos || line[b] == '#') continue;
    auto e = line.find_first_of(" \t\r", b);
    if (e == std::string::npos) e = line.size();
    out.insert(line.substr(b, e - b));
  }
  return out;
}

std::string format_baseline(const std::vector<Diagnostic>& diags) {
  std::string out =
      "# pcm-lint baseline: accepted findings, one content-addressed\n"
      "# fingerprint per line (hash of file, rule and the stripped source\n"
      "# line, so entries survive unrelated code motion). CI fails only on\n"
      "# findings NOT listed here. Regenerate with:\n"
      "#   pcm-lint --root=. --write-baseline=tools/pcm-lint/baseline.txt "
      "src bench tests\n";
  std::vector<const Diagnostic*> sorted;
  sorted.reserve(diags.size());
  for (const auto& d : diags) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     if (a->file != b->file) return a->file < b->file;
                     if (a->line != b->line) return a->line < b->line;
                     return a->rule < b->rule;
                   });
  for (const Diagnostic* d : sorted) {
    out += d->fingerprint + " " + d->file + ":" + std::to_string(d->line) +
           " " + d->rule + "\n";
  }
  return out;
}

}  // namespace pcm::lint
