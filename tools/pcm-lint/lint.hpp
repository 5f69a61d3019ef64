#pragma once

#include <filesystem>
#include <string>
#include <vector>

// pcm-lint v2: a multi-pass semantic determinism linter for the simulator
// tree.
//
// The front end strips comments/strings (preserving line structure and
// handling backslash continuations), lexes each file into a token stream
// (lexer.hpp), extracts function definitions and call sequences per TU
// (sema.hpp), and links a repo-wide call graph across TUs (callgraph.hpp).
// Line-local rules run on the stripped lines; flow-aware rules run on the
// parsed TUs and the call graph.
//
// The reproduction's whole value rests on runs being bit-identical across
// --jobs values and machines, so the linter rejects the constructs that have
// historically broken that promise:
//
//   wallclock            rand()/time()/std::random_device/chrono ::now()
//                        anywhere outside src/exec/ (the only component
//                        allowed to look at the host) and tools/.
//   unordered-iteration  iterating a std::unordered_* container in src/net,
//                        src/machines or src/algos — hash iteration order is
//                        implementation-defined and leaks straight into
//                        simulated timings.
//   float-time           the `float` keyword in src/net, src/machines or
//                        src/sim — simulated time is sim::Micros (double);
//                        mixing float into it loses ulps differently on
//                        different optimisation levels.
//   assert-in-header     assert( in a header under src/ — headers are
//                        compiled into Release bench binaries where NDEBUG
//                        strips the check; use PCM_CHECK instead.
//   bare-catch           a catch (...) handler under src/ (outside
//                        src/exec/) whose body neither rethrows nor calls
//                        std::current_exception — swallowing an exception
//                        silently makes a faulted run look clean. The exec
//                        engine is exempt: its catch sites exist to record
//                        failures in the sweep's failure ledger.
//   include-layer        a quoted #include under src/ pointing *up* the
//                        subsystem layer order
//                          sim -> report -> audit/net/race/core/fault ->
//                          machines -> models/runtime ->
//                          algos/predict/calibrate -> vendor/exec
//                        (report is a leaf presentation layer consumed by
//                        core, and exec sits on top of the machine layer —
//                        the map encodes the tree as actually built, not the
//                        conceptual data-flow order). Same-layer includes
//                        are allowed: audit and net are mutually aware by
//                        design. Directories the map does not know are
//                        skipped, so a new subsystem must be added here
//                        before the rule constrains it.
//   unreachable          a free function under src/ that no `main` in
//                        bench/, examples/, perfbench/ or tools/ reaches
//                        (callgraph.hpp). Those root trees are read for
//                        this rule alone; no other rule lints them.
//
// Suppressions (placed in a comment on the offending line / anywhere in the
// file):
//   pcm-lint:allow(<rule>)        silence <rule> on this line
//   pcm-lint:allow-file(<rule>)   silence <rule> for the whole file
//
// Deliberately not libclang: the linter must build and run in the bare
// toolchain image, and every construct it hunts is lexically recognisable.

namespace pcm::lint {

/// One textual rewrite a rule proposes for its finding. `line` is 1-based in
/// the diagnosed file. With a non-empty `find`, the first occurrence of
/// `find` on that line is replaced by `replace`; with an empty `find`,
/// `replace` is inserted as a new line above `line` (copying its
/// indentation). Fixes are advisory: --fix skips any hint whose `find` no
/// longer matches, and a fixed site no longer fires its rule, which is what
/// makes a second --fix run a guaranteed no-op.
struct FixHint {
  int line = 0;
  std::string find;
  std::string replace;
};

struct Diagnostic {
  std::string file;  ///< Path as given (repo-relative when walking a tree).
  int line = 0;      ///< 1-based.
  std::string rule;
  std::string message;
  /// Content-addressed identity: FNV-1a over (file, rule, the stripped
  /// source line with whitespace collapsed, occurrence index). Stable across
  /// unrelated code motion, so baselines don't churn on line-number shifts.
  std::string fingerprint{};
  /// Machine-applicable rewrites (flow rules only); empty for most rules.
  /// (The `{}` initialisers let rules brace-initialise just the first four
  /// fields without -Wmissing-field-initializers.)
  std::vector<FixHint> fixes{};
};

/// One file handed to the linter: repo-relative forward-slash path + bytes.
struct FileContent {
  std::string rel_path;
  std::string contents;
};

/// Replace comments and string/char literals (including raw strings, in
/// every prefix form R" LR" uR" UR" u8R" and with custom delimiters) with
/// spaces, preserving line structure so diagnostics keep their line numbers.
[[nodiscard]] std::string strip_comments_and_strings(const std::string& src);

/// Lint one file's contents. `rel_path` decides which rules apply and must
/// use forward slashes (e.g. "src/net/mesh_router.cpp"). Cross-TU analysis
/// (determinism-taint) sees only this one TU.
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::string& rel_path,
                                                const std::string& contents);

/// Lint a set of files as one program: per-file rules plus the cross-TU
/// call-graph pass. `roots` are parsed only into the unreachable rule's
/// call graph (their `main`s are its roots); no rule reports on them.
/// Diagnostics are suppression-filtered, fingerprinted and ordered by
/// (file, line).
[[nodiscard]] std::vector<Diagnostic> lint_files(
    const std::vector<FileContent>& files,
    const std::vector<FileContent>& roots = {});

/// Walk `subdirs` under `root`, lint every *.hpp / *.cpp, and return all
/// diagnostics ordered by (file, line). Missing subdirs are skipped. The
/// root trees the unreachable rule needs (bench, examples, perfbench, tools
/// minus tools/pcm-lint) are read as `roots` where `subdirs` leaves them
/// out.
[[nodiscard]] std::vector<Diagnostic> lint_tree(
    const std::filesystem::path& root, const std::vector<std::string>& subdirs);

}  // namespace pcm::lint
