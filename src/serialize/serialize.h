// Graph persistence: a line-oriented text format for round-tripping graphs
// (import/export of irregularly wired networks) and Graphviz DOT export for
// inspection.
//
// Format (one record per line, '#' comments):
//   graph <name>
//   buffer <id> <size_bytes>
//   node <id> <kind> <dtype> <name> shape=<n,h,w,c> buffer=<id>
//        inputs=<i,j,...> conv=<kh,kw,stride,dilation,pad>
//        coff=<buffer_channel_offset> wseed=<seed> wic=<in_channels>
//        woff=<in_channel_offset> wcount=<params> axis=<concat_axis>
// Fields after `buffer=` are optional with defaults; `inputs=` may be empty.
#ifndef SERENITY_SERIALIZE_SERIALIZE_H_
#define SERENITY_SERIALIZE_SERIALIZE_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace serenity::serialize {

// Writes `graph` in the text format above.
std::string ToText(const graph::Graph& graph);

// Parses a graph from the text format. Dies (SERENITY_CHECK) on malformed
// input; validates the result. For trusted inputs (files this process
// wrote, test fixtures).
graph::Graph FromText(const std::string& text);

// The same parse for *untrusted* bytes (the serve wire path): malformed
// records, unparsable numbers, out-of-range ids, absurd shapes and
// structurally invalid graphs all come back as kInvalidArgument — never an
// abort, never a thrown exception. Every id is range-checked here, before
// Graph::AddNode/AddBuffer (whose contracts are CHECKs), and the result is
// graph::Validate()d.
util::StatusOr<graph::Graph> GraphFromTextOr(const std::string& text);

// Graphviz DOT rendering (topology + per-node tensor sizes).
std::string ToDot(const graph::Graph& graph);

// File helpers.
void SaveToFile(const graph::Graph& graph, const std::string& path);
graph::Graph LoadFromFile(const std::string& path);

}  // namespace serenity::serialize

#endif  // SERENITY_SERIALIZE_SERIALIZE_H_
