#pragma once

#include <string>
#include <vector>

#include "lint.hpp"
#include "sema.hpp"

// pcm::lint::callgraph — the cross-TU linking pass and the
// determinism-taint and unreachable rules built on it.
//
// Linking is by simple name: a call to `f` resolves to every parsed
// definition of `f` (overloads and same-named methods merge into one node —
// conservative, which is the right polarity for a linter). Definitions in
// host-exempt trees (src/exec/, tools/) neither seed nor propagate taint:
// exec is the one component allowed to read host time, and its public API
// is deterministic by contract, so taint must not leak through it to
// callers.
//
// determinism-taint: a function is tainted when its body calls a wallclock/
// randomness primitive directly (the seed — already flagged line-locally by
// the `wallclock` rule) or calls any tainted function (the transitive
// closure the line rule cannot see). Diagnostics land on each call site to
// a tainted *function* in non-exempt code, carrying the taint chain down to
// the primitive, e.g. `warmup_bias -> jitter_scale -> host_entropy ->
// time()`.
//
// unreachable: a free function or function template defined under src/
// that no program root reaches. Roots are the `main`s under bench/,
// examples/, perfbench/ and tools/ (tools/pcm-lint/ excepted); destructors
// count as reached. A reached body reaches every definition whose simple
// name it mentions as an identifier — a call, a function pointer, a call
// with explicit template arguments, a class name naming its constructors
// (the declaration head counts, so a member-init list links as well) —
// so the link over-approximates and never calls live code dead. The graph
// here includes the host-exempt trees: exec is part of every sweep's path.
// Member functions are not reported, because name linking cannot see a
// constructor called implicitly. A parse set without a root is a partial
// program, and the rule stays silent on it.

namespace pcm::lint::callgraph {

/// One linked definition, addressable across the whole parse set.
struct Node {
  std::size_t tu = 0;  ///< index into the TU vector
  std::size_t fn = 0;  ///< index into that TU's functions
};

/// The repo-wide graph: every definition, indexed by simple name.
class CallGraph {
 public:
  /// `skip_exempt` leaves the host-exempt trees out (the taint graph).
  explicit CallGraph(const std::vector<sema::TranslationUnit>& tus,
                     bool skip_exempt = true);

  /// Node ids (indices into all()) for every definition named `simple`.
  [[nodiscard]] std::vector<std::size_t> resolve(
      const std::string& simple) const;

  [[nodiscard]] const std::vector<Node>& all() const { return nodes_; }

  [[nodiscard]] const sema::FunctionDef& fn(std::size_t id) const;
  [[nodiscard]] const std::string& file_of(std::size_t id) const;

  /// True when `rel_path` may touch the host clock (src/exec/, tools/):
  /// taint neither seeds in nor propagates through such files.
  [[nodiscard]] static bool exempt(const std::string& rel_path);

 private:
  const std::vector<sema::TranslationUnit>* tus_;
  std::vector<Node> nodes_;
  // simple name -> node ids, kept sorted for deterministic iteration.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> by_name_;
};

/// Run the determinism-taint rule over the full parse set. Diagnostics are
/// unfiltered (the caller applies per-file suppressions) and unordered (the
/// caller sorts).
[[nodiscard]] std::vector<Diagnostic> determinism_taint(
    const std::vector<sema::TranslationUnit>& tus);

/// Run the unreachable rule over the full parse set (linted files plus the
/// root trees read for their `main`s). Same contract as determinism_taint.
[[nodiscard]] std::vector<Diagnostic> unreachable(
    const std::vector<sema::TranslationUnit>& tus);

}  // namespace pcm::lint::callgraph
