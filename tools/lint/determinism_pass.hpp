// Determinism pass: reproducibility-contract escape analysis
// (docs/STATIC_ANALYSIS.md, docs/CORRECTNESS.md).
//
// Walks the same cross-TU call graph as the hot-path pass
// (callgraph_pass.hpp) but roots at IFET_DETERMINISTIC
// (src/util/hot_path.hpp): an annotated function promises bitwise-equal
// results regardless of thread count, submission order, cache
// temperature, hash layout, or pointer values — the contract the repo's
// memcmp gates (FlatMlp vs Mlp::forward, brick-skip vs scalar raycast,
// tight-vs-unlimited server runs) check dynamically and
// util/determinism.hpp's ReplayCheck perturbs at bench time. Any function
// reachable from a root that observes an escape is reported with the full
// call chain. Rules (all under exit bit 16):
//   det-unordered-iter  range-for over a std::unordered_map/set member or
//                       local — iteration order is hash-layout-dependent,
//                       so anything derived from the traversal order is
//                       unstable across runs and library versions. Only
//                       receivers that resolve to a declared unordered
//                       container (directly or through a `using` alias)
//                       are reported; unresolvable receivers produce no
//                       finding, mirroring the lock-rank resolution.
//   det-rand-time       rand()/srand/random_device and wall-clock reads
//                       (chrono ::now, time(...), gettimeofday, ...).
//                       Seeded mt19937 engines are reproducible and not
//                       flagged.
//   det-pointer-order   std::hash/less/greater over pointer types and
//                       pointer-to-uintptr_t casts: allocation addresses
//                       differ run to run.
//   det-float-reduce    std::reduce/transform_reduce, parallel execution
//                       policies, atomic<float/double> accumulation —
//                       floating-point addition does not associate, so
//                       reduction order must be fixed (per-part partials
//                       combined on one thread in part order are fine).
//   det-env             getenv/locale: results must not depend on the
//                       launch environment.
//
// Waivers: `IFET_DET_ALLOW("reason")` on the offending line or the line
// above, or the ordinary `// ifet-lint: allow(<rule>)` marker. Baseline
// entries use the same rule|module/file|symbol key as every other pass.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/callgraph_pass.hpp"
#include "lint/tokenizer.hpp"

namespace ifet_lint {

namespace cg_detail {

/// True when a range-for receiver resolves to a container declared
/// unordered — directly, or through a declared type that aliases one.
inline bool is_unordered_recv(const Model& model, const FnNode& node,
                              const std::string& cls,
                              const std::string& recv) {
  if (node.unordered_locals.count(recv) != 0) return true;
  auto lit = node.local_types.find(recv);
  if (lit != node.local_types.end() &&
      model.unordered_aliases.count(resolve_type(model, lit->second)) != 0) {
    return true;
  }
  auto cit = model.classes.find(cls);
  if (cit != model.classes.end()) {
    if (cit->second.unordered_members.count(recv) != 0) return true;
    auto mit = cit->second.member_types.find(recv);
    if (mit != cit->second.member_types.end() &&
        model.unordered_aliases.count(resolve_type(model, mit->second)) !=
            0) {
      return true;
    }
  }
  return false;
}

}  // namespace cg_detail

/// Runs the determinism escape analysis over a prebuilt call graph.
inline void run_determinism_pass(const std::vector<SourceFile>& files,
                                 const cg_detail::Analysis& analysis,
                                 std::vector<Finding>& findings) {
  using namespace cg_detail;
  const Model& model = analysis.model;
  ReachMap reached = reach_from_roots(analysis, &FnNode::det);

  std::set<std::string> emitted;
  for (const auto& [key, node] : model.fns) {
    auto rit = reached.find(key);
    if (rit == reached.end()) continue;
    const std::string& root = rit->second.first;
    for (const Violation& v : node.violations) {
      if (v.rule.rfind("det-", 0) != 0) continue;
      std::string what = v.what;
      if (v.rule == "det-unordered-iter") {
        // Every range-for is recorded as a candidate; only receivers that
        // resolve to a declared unordered container are findings.
        if (!is_unordered_recv(model, node, v.cls, v.mutex)) continue;
        what = "iterates unordered container '" + v.mutex +
               "' in hash order";
      }
      const SourceFile& file = files[v.file_index];
      const std::size_t idx = v.line - 1;
      if (suppressed(file.raw, idx, v.rule)) continue;
      if (det_allow_waived(file.code, idx)) continue;
      const std::string dedup_key =
          v.rule + "|" + file.path.string() + "|" + std::to_string(v.line);
      if (!emitted.insert(dedup_key).second) continue;
      Finding f;
      f.path = file.path.string();
      f.line = v.line;
      f.rule = v.rule;
      f.symbol = key;
      f.chain = chain_of(reached, key);
      f.message = what + " in '" + key +
                  "', reachable from IFET_DETERMINISTIC root '" + root +
                  "' via " + f.chain +
                  "; deterministic kernels must not observe hash order, "
                  "wall clocks, pointer identity, or reduction order "
                  "(waive with IFET_DET_ALLOW(reason))";
      findings.push_back(std::move(f));
    }
  }
}

/// Compatibility entry point: builds the graph itself (fixture drivers).
inline void run_determinism_pass(const std::vector<SourceFile>& files,
                                 std::vector<Finding>& findings) {
  run_determinism_pass(files, cg_detail::build_analysis(files), findings);
}

}  // namespace ifet_lint
