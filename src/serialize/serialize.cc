#include "serialize/serialize.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "serialize/plan.h"
#include "util/logging.h"

namespace serenity::serialize {

namespace {

const std::map<std::string, graph::OpKind>& KindByName() {
  static const auto* kMap = [] {
    auto* m = new std::map<std::string, graph::OpKind>();
    for (int k = 0; k <= static_cast<int>(graph::OpKind::kConcatView); ++k) {
      const auto kind = static_cast<graph::OpKind>(k);
      (*m)[graph::ToString(kind)] = kind;
    }
    return m;
  }();
  return *kMap;
}

const std::map<std::string, graph::DataType>& DtypeByName() {
  static const auto* kMap = [] {
    auto* m = new std::map<std::string, graph::DataType>();
    for (const auto dtype :
         {graph::DataType::kFloat32, graph::DataType::kFloat16,
          graph::DataType::kInt8, graph::DataType::kUInt8,
          graph::DataType::kInt32}) {
      (*m)[graph::ToString(dtype)] = dtype;
    }
    return m;
  }();
  return *kMap;
}

// Node names may contain spaces; escape them minimally.
std::string EscapeName(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (c == ' ') {
      out += "\\s";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out += c;
    }
  }
  return out.empty() ? std::string("_") : out;
}

std::string UnescapeName(const std::string& escaped) {
  if (escaped == "_") return "";
  std::string out;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      out += (escaped[i + 1] == 's') ? ' ' : escaped[i + 1];
      ++i;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

// Exception-free number parsing (untrusted input never reaches std::stoll,
// which throws). Requires the token to be fully numeric; rejects overflow.
bool ParseI64(const std::string& token, std::int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

bool ParseU64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

bool ParseIntListOr(const std::string& csv, std::vector<std::int64_t>* out) {
  out->clear();
  if (csv.empty()) return true;
  std::istringstream is(csv);
  std::string token;
  while (std::getline(is, token, ',')) {
    std::int64_t value = 0;
    if (!ParseI64(token, &value)) return false;
    out->push_back(value);
  }
  return true;
}


// key=value field extraction; returns empty string if absent.
std::string Field(const std::vector<std::string>& tokens,
                  const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& t : tokens) {
    if (t.rfind(prefix, 0) == 0) return t.substr(prefix.size());
  }
  return "";
}

void WriteText(const graph::Graph& graph, std::ostream& os) {
  os << "# serenity graph v1\n";
  os << "graph " << EscapeName(graph.name()) << "\n";
  for (graph::BufferId b = 0; b < graph.num_buffers(); ++b) {
    os << "buffer " << b << " " << graph.buffer(b).size_bytes << "\n";
  }
  for (const graph::Node& n : graph.nodes()) {
    os << "node " << n.id << " " << graph::ToString(n.kind) << " "
       << graph::ToString(n.dtype) << " " << EscapeName(n.name)
       << " shape=" << n.shape.n << "," << n.shape.h << "," << n.shape.w
       << "," << n.shape.c << " buffer=" << n.buffer << " inputs=";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (i > 0) os << ",";
      os << n.inputs[i];
    }
    os << " conv=" << n.conv.kernel_h << "," << n.conv.kernel_w << ","
       << n.conv.stride << "," << n.conv.dilation << ","
       << (n.conv.padding == graph::Padding::kSame ? "same" : "valid");
    os << " coff=" << n.buffer_channel_offset << " wseed=" << n.weight_seed
       << " wic=" << n.weight_in_channels << " woff=" << n.in_channel_offset
       << " wcount=" << n.weight_count << " axis=" << n.concat_axis << "\n";
  }
}

}  // namespace

std::string ToText(const graph::Graph& graph) {
  std::ostringstream os;
  WriteText(graph, os);
  return os.str();
}

graph::Graph FromText(const std::string& text) {
  util::StatusOr<graph::Graph> graph = GraphFromTextOr(text);
  SERENITY_CHECK(graph.ok()) << "malformed graph text: "
                             << graph.status().ToString();
  return std::move(graph).value();
}

util::StatusOr<graph::Graph> GraphFromTextOr(const std::string& text) {
  // Every value is range-checked before it reaches Graph::AddNode /
  // AddBuffer, whose contracts are CHECKs — untrusted bytes must earn a
  // kInvalidArgument, not an abort. Dimension bounds keep element counts
  // (and therefore OutputBytes) far from int64 overflow.
  constexpr std::int64_t kMaxDim = 1 << 20;
  constexpr std::int64_t kMaxElements = 1ll << 31;
  const auto bad = [](const std::string& why) {
    return util::InvalidArgumentError("graph text: " + why);
  };

  std::istringstream is(text);
  std::string line;
  graph::Graph graph;
  int buffers_declared = 0;
  std::vector<std::int64_t> list;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string token;
    while (ls >> token) tokens.push_back(token);
    if (tokens.empty()) continue;
    if (tokens[0] == "graph") {
      if (tokens.size() < 2u) return bad("graph record missing name");
      graph.set_name(UnescapeName(tokens[1]));
    } else if (tokens[0] == "buffer") {
      if (tokens.size() != 3u) return bad("buffer record wants id + size");
      std::int64_t id = 0;
      std::int64_t size_bytes = 0;
      if (!ParseI64(tokens[1], &id) || !ParseI64(tokens[2], &size_bytes)) {
        return bad("unparsable buffer record '" + line + "'");
      }
      if (id != buffers_declared) return bad("buffers must be in order");
      if (size_bytes < 0 || size_bytes > kMaxElements * 4) {
        return bad("buffer size out of range");
      }
      graph.AddBuffer(size_bytes);
      ++buffers_declared;
    } else if (tokens[0] == "node") {
      if (tokens.size() < 7u) return bad("truncated node record");
      graph::Node node;
      std::int64_t id = 0;
      if (!ParseI64(tokens[1], &id)) return bad("unparsable node id");
      if (id != graph.num_nodes()) return bad("nodes must be in order");
      const auto kind_it = KindByName().find(tokens[2]);
      if (kind_it == KindByName().end()) {
        return bad("unknown op kind '" + tokens[2] + "'");
      }
      node.kind = kind_it->second;
      const auto dtype_it = DtypeByName().find(tokens[3]);
      if (dtype_it == DtypeByName().end()) {
        return bad("unknown dtype '" + tokens[3] + "'");
      }
      node.dtype = dtype_it->second;
      node.name = UnescapeName(tokens[4]);
      if (!ParseIntListOr(Field(tokens, "shape"), &list) ||
          list.size() != 4u) {
        return bad("node shape wants four integers");
      }
      std::int64_t elements = 1;
      for (const std::int64_t dim : list) {
        if (dim < 0 || dim > kMaxDim) return bad("shape dimension out of range");
        elements *= dim;  // bounded: 4 factors of <= 2^20 fit in int64
      }
      if (elements > kMaxElements) return bad("shape element count too large");
      node.shape = graph::TensorShape{
          static_cast<int>(list[0]), static_cast<int>(list[1]),
          static_cast<int>(list[2]), static_cast<int>(list[3])};
      std::int64_t buffer = 0;
      if (!ParseI64(Field(tokens, "buffer"), &buffer)) {
        return bad("unparsable node buffer id");
      }
      if (buffer == graph::kInvalidBuffer) {
        if (graph::MayAliasBuffer(node.kind)) {
          return bad("aliasing node without an explicit buffer");
        }
      } else if (buffer < 0 || buffer >= buffers_declared) {
        return bad("node buffer id out of range");
      }
      node.buffer = static_cast<graph::BufferId>(buffer);
      if (!ParseIntListOr(Field(tokens, "inputs"), &list)) {
        return bad("unparsable node inputs");
      }
      for (const std::int64_t input : list) {
        if (input < 0 || input >= graph.num_nodes()) {
          return bad("node input id out of range");
        }
        node.inputs.push_back(static_cast<graph::NodeId>(input));
      }
      const std::string conv = Field(tokens, "conv");
      if (!conv.empty()) {
        std::istringstream cs(conv);
        std::string part;
        std::vector<std::string> parts;
        while (std::getline(cs, part, ',')) parts.push_back(part);
        if (parts.size() != 5u) return bad("conv attrs want five fields");
        std::int64_t attrs[4] = {0, 0, 0, 0};
        for (int i = 0; i < 4; ++i) {
          if (!ParseI64(parts[static_cast<std::size_t>(i)], &attrs[i]) ||
              attrs[i] < 0 || attrs[i] > kMaxDim) {
            return bad("conv attr out of range");
          }
        }
        node.conv.kernel_h = static_cast<int>(attrs[0]);
        node.conv.kernel_w = static_cast<int>(attrs[1]);
        node.conv.stride = static_cast<int>(attrs[2]);
        node.conv.dilation = static_cast<int>(attrs[3]);
        if (parts[4] != "same" && parts[4] != "valid") {
          return bad("conv padding wants same|valid");
        }
        node.conv.padding = parts[4] == "same" ? graph::Padding::kSame
                                               : graph::Padding::kValid;
      }
      bool fields_ok = true;
      const auto int_field = [&](const char* key, std::int64_t lo,
                                 std::int64_t hi, auto setter) {
        const std::string value = Field(tokens, key);
        if (value.empty()) return;
        std::int64_t v = 0;
        if (!ParseI64(value, &v) || v < lo || v > hi) {
          fields_ok = false;
          return;
        }
        setter(v);
      };
      int_field("coff", 0, kMaxDim, [&](std::int64_t v) {
        node.buffer_channel_offset = static_cast<int>(v);
      });
      const std::string wseed = Field(tokens, "wseed");
      if (!wseed.empty() && !ParseU64(wseed, &node.weight_seed)) {
        return bad("unparsable weight seed");
      }
      int_field("wic", 0, kMaxDim, [&](std::int64_t v) {
        node.weight_in_channels = static_cast<int>(v);
      });
      int_field("woff", 0, kMaxDim, [&](std::int64_t v) {
        node.in_channel_offset = static_cast<int>(v);
      });
      int_field("wcount", 0, kMaxElements,
                [&](std::int64_t v) { node.weight_count = v; });
      int_field("axis", 0, 3, [&](std::int64_t v) {
        node.concat_axis = static_cast<int>(v);
      });
      if (!fields_ok) return bad("node attribute out of range");
      graph.AddNode(std::move(node));
    } else {
      return bad("unknown record '" + tokens[0] + "'");
    }
  }
  std::vector<std::string> problems = graph.Validate();
  if (!problems.empty()) {
    return bad("validation failed: " + problems.front());
  }
  return graph;
}

std::string ToDot(const graph::Graph& graph) {
  std::ostringstream os;
  os << "digraph \"" << graph.name() << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  for (const graph::Node& n : graph.nodes()) {
    os << "  n" << n.id << " [label=\"" << n.name << "\\n"
       << graph::ToString(n.kind) << " " << n.shape.ToString() << "\\n"
       << n.OutputBytes() / 1024.0 << " KB\"];\n";
  }
  for (const graph::Node& n : graph.nodes()) {
    for (const graph::NodeId input : n.inputs) {
      os << "  n" << input << " -> n" << n.id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

void SaveToFile(const graph::Graph& graph, const std::string& path) {
  std::ofstream os(path);
  SERENITY_CHECK(os.good()) << "cannot open '" << path << "' for writing";
  WriteText(graph, os);
}

graph::Graph LoadFromFile(const std::string& path) {
  util::StatusOr<std::string> text = ReadFile(path);
  SERENITY_CHECK(text.ok()) << text.status().message();
  return FromText(*text);
}

}  // namespace serenity::serialize
