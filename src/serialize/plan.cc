#include "serialize/plan.h"

#include <cctype>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/logging.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace serenity::serialize {

ExecutionPlan MakePlan(const graph::Graph& graph,
                       const sched::Schedule& schedule) {
  return MakePlanOr(graph, schedule, nullptr).value();
}

util::StatusOr<ExecutionPlan> MakePlanOr(const graph::Graph& graph,
                                         const sched::Schedule& schedule,
                                         util::MemoryBudget* budget) {
  util::StatusOr<alloc::ArenaPlan> arena =
      alloc::PlanArenaGoverned(graph, schedule, budget);
  if (!arena.ok()) return arena.status();
  ExecutionPlan plan;
  plan.graph_name = graph.name();
  plan.schedule = schedule;
  plan.arena = std::move(*arena);
  return plan;
}

std::string AppendPlanChecksum(const std::string& body) {
  char record[16];
  std::snprintf(record, sizeof(record), "crc %08x\n", util::Crc32(body));
  return body + record;
}

std::string PlanToText(const ExecutionPlan& plan) {
  std::ostringstream os;
  os << "serenity-plan v" << kPlanFormatVersion << "\n";
  os << "plan " << (plan.graph_name.empty() ? "_" : plan.graph_name) << " "
     << plan.schedule.size() << " " << plan.arena.arena_bytes << "\n";
  os << "order";
  for (const graph::NodeId id : plan.schedule) os << " " << id;
  os << "\n";
  for (const alloc::BufferPlacement& p : plan.arena.placements) {
    os << "place " << p.buffer << " " << p.offset << " " << p.size << " "
       << p.first_step << " " << p.last_step << "\n";
  }
  return AppendPlanChecksum(os.str());
}

namespace {

util::Status CorruptPlan(const std::string& detail) {
  return util::DataLossError("corrupt plan text: " + detail);
}

// Splits the mandatory trailing `crc` record off `text` and verifies it
// against the body. Truncation (missing/partial record, bytes after it)
// and any bit flip in body or record fail here, before parsing.
util::StatusOr<std::string> VerifyChecksum(const std::string& text) {
  std::size_t at = text.rfind("\ncrc ");
  std::size_t body_end;  // index one past the body's final newline
  if (at != std::string::npos) {
    body_end = at + 1;
  } else if (text.rfind("crc ", 0) == 0) {
    body_end = 0;  // degenerate: checksum record is the whole text
  } else {
    return CorruptPlan("missing crc record (truncated?)");
  }
  const std::string record = text.substr(body_end);
  // Expect exactly "crc <8 hex>\n" — a partial hex field is truncation.
  if (record.size() != 13 || record.compare(0, 4, "crc ") != 0 ||
      record.back() != '\n') {
    return CorruptPlan("malformed crc record");
  }
  std::uint32_t declared = 0;
  for (int i = 4; i < 12; ++i) {
    const char c = record[static_cast<std::size_t>(i)];
    const int digit = (c >= '0' && c <= '9')   ? c - '0'
                      : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                                               : -1;
    if (digit < 0) return CorruptPlan("malformed crc record");
    declared = (declared << 4) | static_cast<std::uint32_t>(digit);
  }
  std::string body = text.substr(0, body_end);
  if (util::Crc32(body) != declared) {
    return CorruptPlan("checksum mismatch (bit flip or torn write)");
  }
  return body;
}

}  // namespace

util::StatusOr<ExecutionPlan> PlanFromText(const std::string& text,
                                           const graph::Graph& graph) {
  SERENITY_ASSIGN_OR_RETURN(const std::string body, VerifyChecksum(text));

  ExecutionPlan plan;
  std::istringstream is(body);
  std::string line;
  std::int64_t declared_arena = -1;
  std::size_t declared_nodes = 0;
  bool saw_version = false;
  bool saw_plan = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (!saw_version) {
      // The very first record must be the format header.
      if (tag != "serenity-plan") {
        return CorruptPlan("not a serenity plan: missing format header");
      }
      std::string version;
      ls >> version;
      if (ls.fail()) return CorruptPlan("truncated plan format header");
      if (version != "v" + std::to_string(kPlanFormatVersion)) {
        return util::FailedPreconditionError(
            "unsupported plan format version '" + version +
            "' (this build reads v" + std::to_string(kPlanFormatVersion) +
            ")");
      }
      saw_version = true;
    } else if (tag == "plan") {
      if (saw_plan) return CorruptPlan("duplicate plan record");
      ls >> plan.graph_name >> declared_nodes >> declared_arena;
      if (ls.fail()) {
        return CorruptPlan("malformed plan record '" + line + "'");
      }
      if (declared_nodes != static_cast<std::size_t>(graph.num_nodes())) {
        return util::InvalidArgumentError(
            "plan was compiled for a different graph: it lists " +
            std::to_string(declared_nodes) + " nodes, '" + graph.name() +
            "' has " + std::to_string(graph.num_nodes()));
      }
      const std::string expected_name =
          graph.name().empty() ? "_" : graph.name();
      if (plan.graph_name != expected_name) {
        return util::InvalidArgumentError(
            "plan was compiled for a different graph: it names '" +
            plan.graph_name + "', this graph is '" + expected_name + "'");
      }
      saw_plan = true;
    } else if (tag == "order") {
      if (!saw_plan) return CorruptPlan("order record before plan record");
      graph::NodeId id;
      while (ls >> id) plan.schedule.push_back(id);
      if (!ls.eof()) {
        return CorruptPlan("malformed order record '" + line + "'");
      }
    } else if (tag == "place") {
      if (!saw_plan) return CorruptPlan("place record before plan record");
      alloc::BufferPlacement p;
      ls >> p.buffer >> p.offset >> p.size >> p.first_step >> p.last_step;
      if (ls.fail()) {
        return CorruptPlan("malformed place record '" + line + "'");
      }
      if (p.buffer < 0 || p.buffer >= graph.num_buffers()) {
        return CorruptPlan("place record references unknown buffer " +
                           std::to_string(p.buffer));
      }
      if (p.offset < 0 || p.size <= 0 ||
          p.size > std::numeric_limits<std::int64_t>::max() - p.offset) {
        return CorruptPlan("placement of buffer " +
                           std::to_string(p.buffer) +
                           " overflows the arena");
      }
      plan.arena.placements.push_back(p);
      plan.arena.arena_bytes =
          std::max(plan.arena.arena_bytes, p.offset + p.size);
    } else {
      return CorruptPlan("unknown plan record '" + tag + "'");
    }
  }
  if (!saw_plan) return CorruptPlan("truncated plan: no plan record");
  if (plan.schedule.size() != declared_nodes) {
    return CorruptPlan("truncated plan: order lists " +
                       std::to_string(plan.schedule.size()) + " of " +
                       std::to_string(declared_nodes) + " nodes");
  }
  if (!sched::IsTopologicalOrder(graph, plan.schedule)) {
    return util::InvalidArgumentError(
        "plan schedule is not a valid order for this graph");
  }
  if (plan.arena.arena_bytes != declared_arena) {
    return CorruptPlan("plan arena size disagrees with its placements (" +
                       std::to_string(declared_arena) + " declared, " +
                       std::to_string(plan.arena.arena_bytes) +
                       " derived)");
  }
  for (const alloc::BufferPlacement& p : plan.arena.placements) {
    if (p.first_step > p.last_step) {
      return CorruptPlan("inverted lifetime for buffer " +
                         std::to_string(p.buffer));
    }
    if (p.first_step < 0 ||
        static_cast<std::size_t>(p.last_step) >= plan.schedule.size()) {
      return CorruptPlan("lifetime of buffer " + std::to_string(p.buffer) +
                         " is outside the schedule");
    }
  }
  // Rebuild the derived high-water trace so loaded plans are fully usable.
  plan.arena.highwater_at_step =
      alloc::HighwaterAtStep(plan.arena.placements, plan.schedule.size());
  // Everything an executor binds against must hold before the plan is
  // handed back — placement completeness and exact sizes, lifetimes
  // covering every producer/consumer step, pairwise non-overlap. A corrupt
  // cache artifact is quarantined here, not executed.
  const std::vector<std::string> problems =
      alloc::ValidatePlanForGraph(plan.arena, graph, plan.schedule);
  if (!problems.empty()) {
    return util::InvalidArgumentError(
        "invalid plan: " + problems.front() + " (" +
        std::to_string(problems.size()) + " problem(s))");
  }
  return plan;
}

util::Status AtomicWriteFile(const std::string& path,
                             const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return util::UnavailableError("cannot open '" + tmp +
                                  "' for writing");
  }
  const std::size_t written =
      contents.empty() ? 0
                       : std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = written == contents.size() && std::fflush(f) == 0;
#ifdef __unix__
  // Durability point: the data reaches disk before the rename publishes it,
  // so a crash leaves either the complete old file or the complete new one.
  ok = ok && fsync(fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return util::UnavailableError("error writing '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::UnavailableError("cannot rename '" + tmp + "' to '" +
                                  path + "'");
  }
  return util::OkStatus();
}

util::Status SavePlanToFile(const ExecutionPlan& plan,
                            const std::string& path) {
  return AtomicWriteFile(path, PlanToText(plan));
}

util::StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::NotFoundError("cannot open '" + path + "' for reading");
  }
  std::string text;
  char buffer[1 << 15];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return util::UnavailableError("error reading '" + path + "'");
  }
  return text;
}

util::StatusOr<ExecutionPlan> LoadPlanFromFile(const std::string& path,
                                               const graph::Graph& graph) {
  util::StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return PlanFromText(*text, graph);
}

}  // namespace serenity::serialize
