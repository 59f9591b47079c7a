// Execution-plan persistence: the compilation artifact an edge runtime
// consumes — the node execution order plus the arena offset of every
// activation buffer. This is the single artifact that flows scheduler ->
// arena planner -> plan cache -> ArenaExecutor (runtime/arena_executor.h).
//
// Text format (versioned; see DESIGN.md "Plan text format"):
//
//   serenity-plan v3
//   plan <graph_name> <num_nodes> <arena_bytes>
//   order <id0> <id1> ...
//   place <buffer_id> <offset> <size> <first_step> <last_step>
//   crc <8 hex digits>
//
// The header line names the format version; PlanFromText rejects unknown
// versions outright, so a runtime never mis-parses a plan written by a
// different serializer generation. The mandatory trailing crc record is the
// CRC-32 of everything before it: any bit flip or truncation anywhere in
// the text fails integrity *before* parsing, so a mutated plan can never be
// silently accepted. Loading then re-validates everything an executor
// depends on — topological order, placement geometry
// (alloc::ValidatePlanForGraph), declared-vs-derived arena size.
//
// Failure contract (DESIGN.md "Failure taxonomy"): corrupt, truncated or
// mismatched plan text is *environment* damage, not a programming error —
// PlanFromText returns util::Status instead of aborting, so a serving
// process quarantines the artifact and re-plans rather than dying.
#ifndef SERENITY_SERIALIZE_PLAN_H_
#define SERENITY_SERIALIZE_PLAN_H_

#include <string>

#include "alloc/arena_planner.h"
#include "graph/graph.h"
#include "sched/schedule.h"
#include "util/status.h"

namespace serenity::serialize {

// Bump when the text format changes shape. v1 (pre-header) and v2
// (pre-checksum) files are no longer accepted; re-plan and re-persist.
inline constexpr int kPlanFormatVersion = 3;

struct ExecutionPlan {
  std::string graph_name;
  sched::Schedule schedule;
  alloc::ArenaPlan arena;
};

// Builds a plan for `schedule` on `graph`, with the arena-planning pass
// charged against `budget` (alloc::PlanArenaGoverned): a denied charge is
// a clean kResourceExhausted; a null budget never fails. The planner
// CHECKs that `schedule` is a topological order — the caller computed it,
// so a bad one is a programming error. MakePlan is the ungoverned form.
util::StatusOr<ExecutionPlan> MakePlanOr(const graph::Graph& graph,
                                         const sched::Schedule& schedule,
                                         util::MemoryBudget* budget);
ExecutionPlan MakePlan(const graph::Graph& graph,
                       const sched::Schedule& schedule);

std::string PlanToText(const ExecutionPlan& plan);

// Appends the trailing `crc` record to a plan body. Exposed for corruption
// test suites that edit the body and need the integrity layer re-stamped so
// structural validation (not the checksum) is what rejects the edit.
std::string AppendPlanChecksum(const std::string& body);

// Parses a plan. Returns a non-OK Status on malformed, truncated,
// unversioned, wrong-version or checksum-failing input — never aborts.
// `graph` is used to validate the schedule (must be a topological order of
// it) and the buffer references.
util::StatusOr<ExecutionPlan> PlanFromText(const std::string& text,
                                           const graph::Graph& graph);

// Atomic write-temp-then-rename: a crash mid-save leaves either the old
// file or the new one, never a torn mix.
util::Status SavePlanToFile(const ExecutionPlan& plan,
                            const std::string& path);
util::StatusOr<ExecutionPlan> LoadPlanFromFile(const std::string& path,
                                               const graph::Graph& graph);

// The persistence layers' one file writer and one file reader.
// AtomicWriteFile writes `contents` to `path` via a temporary file in the
// same directory plus std::rename, fsyncing before the swap. On failure the
// temporary is removed and `path` is untouched.
util::Status AtomicWriteFile(const std::string& path,
                             const std::string& contents);
// ReadFile returns every byte of `path`: kNotFound when it cannot be
// opened, kUnavailable on a read error.
util::StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace serenity::serialize

#endif  // SERENITY_SERIALIZE_PLAN_H_
