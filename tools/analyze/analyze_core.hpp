// rac-analyze: the project's static checker.
//
// One srcscan pass per file (comments and string literals stripped, raw
// strings and line continuations handled, a token stream with line
// numbers) feeds every rule; rules() is the table and DESIGN.md §14 the
// full description. The families:
//
// Conventions, per stripped line: default-registry, raw-assert, iostream,
//   pragma-once, include-hygiene, locale-io, untracked-timer,
//   hot-path-alloc, float-eq, unchecked-measure. Per token: rand (ambient
//   randomness outside util::Rng) and wall-clock (clock reads in the
//   reproducible subsystems src/{core,rl,env,tiersim,queueing}); the same
//   source list seeds the reachability taint below.
//
// Include/layer graph (see include_graph.hpp): include-cycle,
//   layer-unknown, layer-order, layer-edge, layer-cycle against
//   layers.manifest.
//
// Determinism dataflow:
//   unordered-iter  range-for over an unordered_{map,set} whose body does
//                   order-dependent work: compound-assignment accumulation
//                   into outer state, last-iteration-wins assignments of
//                   the loop element, or appends to an outer container
//                   that is never sorted afterwards. Scoped to src/ and
//                   bench/, whose outputs are bit-compared across runs.
//   clock-reachability / rand-reachability
//                   a reproducible subsystem calls a helper whose body --
//                   possibly through further helpers, in any src/ file --
//                   reaches a wall-clock read or ambient randomness.
//                   Sources in src/obs/, src/util/log.* and src/util/rng.*
//                   are exempt (instrumentation and the seeded RNG own
//                   those reads by design).
//
// Parallel safety:
//   parallel-ref-capture
//                   a lambda passed to parallel_for/parallel_map captures
//                   outer state by reference and writes it without
//                   indexing by the task-index parameter -- a data race
//                   TSan only reports when a schedule exposes it.
//
// Findings on a line carrying `// rac-analyze: allow(<rule>[, <rule>...])`
// are suppressed for the named rules only, with the justification in the
// same comment. An allow() that suppresses nothing on its line is itself a
// finding (unused-suppression), so stale exemptions cannot accumulate.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "include_graph.hpp"

namespace rac::analyze {

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The rule table, in reporting order.
const std::vector<RuleInfo>& rules();

/// One in-memory source file; relpath (forward-slash, repo-relative)
/// drives path scoping and include resolution, so tests can analyze
/// fixture text under any pretend path.
struct SourceFile {
  std::string relpath;
  std::string contents;
};

/// Analyze a file set as a unit (cross-file rules see all of it).
/// `manifest` may be null: layer rules are skipped, everything else runs.
std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const Manifest* manifest);

/// Load every *.hpp/*.cpp/*.h/*.cc under root/<subdir> (or a single file)
/// for each subdir, sorted. Throws std::runtime_error on a missing
/// subdir.
std::vector<SourceFile> load_tree(const std::filesystem::path& root,
                                  const std::vector<std::string>& subdirs);

/// Observed module-level dependency map of a file set (for the manifest
/// golden test and --write-manifest).
std::map<std::string, std::set<std::string>> observed_module_deps(
    const std::vector<SourceFile>& files);

/// Machine-readable report: {"count": N, "findings": [...]}.
std::string to_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 with one run, the full rule table, and one result per
/// finding (physicalLocation uri = repo-relative path).
std::string to_sarif(const std::vector<Finding>& findings);

/// Human-readable "file:line: [rule] message" lines.
std::string to_text(const std::vector<Finding>& findings);

}  // namespace rac::analyze
