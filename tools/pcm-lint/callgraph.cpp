#include "callgraph.hpp"

#include <algorithm>
#include <deque>
#include <map>

namespace pcm::lint::callgraph {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// First token of the declaration whose body opens at `body_begin`: walk
/// back to the `;`, `{` or `}` that ends the previous one, skipping
/// parenthesised spans.
std::size_t head_begin(const std::vector<lexer::Token>& toks,
                       std::size_t body_begin) {
  int depth = 0;
  std::size_t i = body_begin;
  while (i > 0) {
    const lexer::Token& t = toks[i - 1];
    if (t.kind == lexer::Tok::Punct) {
      if (t.text == ")") ++depth;
      if (t.text == "(") --depth;
      if (depth == 0 && (t.text == ";" || t.text == "{" || t.text == "}")) break;
    }
    --i;
  }
  return i;
}

/// Is `rel_path` in a tree whose `main` is a program root?
bool root_tree(const std::string& rel_path) {
  if (starts_with(rel_path, "tools/pcm-lint/")) return false;
  return starts_with(rel_path, "bench/") || starts_with(rel_path, "examples/") ||
         starts_with(rel_path, "perfbench/") || starts_with(rel_path, "tools/");
}

}  // namespace

bool CallGraph::exempt(const std::string& rel_path) {
  return starts_with(rel_path, "src/exec/") || starts_with(rel_path, "tools/");
}

CallGraph::CallGraph(const std::vector<sema::TranslationUnit>& tus,
                     bool skip_exempt)
    : tus_(&tus) {
  std::map<std::string, std::vector<std::size_t>> index;
  for (std::size_t t = 0; t < tus.size(); ++t) {
    if (skip_exempt && exempt(tus[t].rel_path)) continue;
    for (std::size_t f = 0; f < tus[t].functions.size(); ++f) {
      index[tus[t].functions[f].simple_name].push_back(nodes_.size());
      nodes_.push_back(Node{t, f});
    }
  }
  by_name_.assign(index.begin(), index.end());
}

std::vector<std::size_t> CallGraph::resolve(const std::string& simple) const {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), simple,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it == by_name_.end() || it->first != simple) return {};
  return it->second;
}

const sema::FunctionDef& CallGraph::fn(std::size_t id) const {
  const Node& n = nodes_[id];
  return (*tus_)[n.tu].functions[n.fn];
}

const std::string& CallGraph::file_of(std::size_t id) const {
  return (*tus_)[nodes_[id].tu].rel_path;
}

std::vector<Diagnostic> determinism_taint(
    const std::vector<sema::TranslationUnit>& tus) {
  const CallGraph graph(tus);
  const std::size_t n = graph.all().size();

  // chain_[id] describes how id reaches a primitive ("f -> g -> time()");
  // empty = not tainted.
  std::vector<std::string> chain(n);
  std::deque<std::size_t> work;
  for (std::size_t id = 0; id < n; ++id) {
    const auto& fn = graph.fn(id);
    if (fn.direct_wallclock) {
      chain[id] = fn.qualified_name + " -> " + fn.wallclock_what;
      work.push_back(id);
    }
  }

  // Reverse propagation to callers, fixpoint over the (possibly cyclic)
  // graph: a caller adopts the first chain that reaches it and is never
  // revisited, so mutual recursion terminates.
  std::map<std::string, std::vector<std::size_t>> callers_of;  // callee name
  for (std::size_t id = 0; id < n; ++id) {
    for (const auto& cs : graph.fn(id).calls) callers_of[cs.callee].push_back(id);
  }
  while (!work.empty()) {
    const std::size_t id = work.front();
    work.pop_front();
    const auto it = callers_of.find(graph.fn(id).simple_name);
    if (it == callers_of.end()) continue;
    for (const std::size_t caller : it->second) {
      if (!chain[caller].empty()) continue;
      chain[caller] = graph.fn(caller).qualified_name + " -> " + chain[id];
      work.push_back(caller);
    }
  }

  // Report every call site to a tainted function. The tainted callee's own
  // primitive call is the `wallclock` rule's business; the *edges* into the
  // taint are what only this pass can see.
  std::vector<Diagnostic> out;
  for (std::size_t id = 0; id < n; ++id) {
    const auto& fn = graph.fn(id);
    const std::string& file = graph.file_of(id);
    for (const auto& cs : fn.calls) {
      const auto targets = graph.resolve(cs.callee);
      if (targets.empty()) continue;
      if (cs.callee == fn.simple_name) continue;  // recursion, not an edge in
      // Qualified std:: calls are the library's, not ours.
      if (cs.qualifier == "std") continue;
      for (const std::size_t target : targets) {
        if (chain[target].empty()) continue;
        out.push_back(
            {file, cs.line, "determinism-taint",
             "call to '" + graph.fn(target).qualified_name +
                 "' reaches host time/randomness: " + chain[target] +
                 " — the deterministic core must draw all time from cost "
                 "models and all randomness from the seeded sim::Rng "
                 "(allowed only in src/exec/)"});
        break;  // one diagnostic per call site even if overloads all taint
      }
    }
  }
  return out;
}

std::vector<Diagnostic> unreachable(
    const std::vector<sema::TranslationUnit>& tus) {
  const CallGraph graph(tus, /*skip_exempt=*/false);
  const std::size_t n = graph.all().size();

  std::vector<char> reached(n, 0);
  std::vector<std::size_t> work;
  bool any_root = false;
  for (std::size_t id = 0; id < n; ++id) {
    const auto& fn = graph.fn(id);
    const bool root = fn.class_name.empty() && fn.simple_name == "main" &&
                      root_tree(graph.file_of(id));
    any_root = any_root || root;
    if (root || starts_with(fn.simple_name, "~")) {
      reached[id] = 1;
      work.push_back(id);
    }
  }
  if (!any_root) return {};

  while (!work.empty()) {
    const std::size_t id = work.back();
    work.pop_back();
    const auto& fn = graph.fn(id);
    const auto& toks = tus[graph.all()[id].tu].tokens;
    // The head counts too: a constructor's member-init list and default
    // arguments call functions before the body's `{`.
    for (std::size_t i = head_begin(toks, fn.body_begin); i < fn.body_end; ++i) {
      if (toks[i].kind != lexer::Tok::Ident) continue;
      for (const std::size_t target : graph.resolve(toks[i].text)) {
        if (reached[target]) continue;
        reached[target] = 1;
        work.push_back(target);
      }
    }
  }

  std::vector<Diagnostic> out;
  for (std::size_t id = 0; id < n; ++id) {
    const auto& fn = graph.fn(id);
    if (reached[id] || !fn.class_name.empty()) continue;
    if (!starts_with(graph.file_of(id), "src/")) continue;
    out.push_back({graph.file_of(id), fn.line, "unreachable",
                   "free function '" + fn.qualified_name +
                       "' is reached from no main in bench/, examples/, "
                       "perfbench/ or tools/ — delete it, or baseline it "
                       "with the reason it stays (test-only callers, test "
                       "oracle)"});
  }
  return out;
}

}  // namespace pcm::lint::callgraph
