// Table 1 — "Specification of the networks used for evaluation".
//
// Prints type, dataset, multiply-accumulate count, and parameter count for
// each benchmark network, computed from the generated graphs, next to the
// paper's reported values. (Top-1 accuracy is a training-time property
// quoted from the respective papers; a scheduling framework cannot
// re-measure it, so the paper's numbers are repeated for reference.)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/graph.h"
#include "models/darts.h"
#include "models/randwire.h"
#include "models/swiftnet.h"

namespace {

struct NetworkRow {
  const char* name;
  const char* type;
  const char* dataset;
  std::vector<serenity::graph::Graph> cells;
  double paper_mac;     // paper's "# MAC"
  double paper_weight;  // paper's "# WEIGHT"
  const char* paper_top1;
};

// Returns false iff a requested --json write failed.
bool PrintTable(const std::string& json_path) {
  using namespace serenity;
  std::vector<NetworkRow> rows;
  rows.push_back({"DARTS", "NAS", "ImageNet",
                  {},
                  574.0e6, 4.7e6, "73.3%"});
  rows.back().cells.push_back(models::MakeDartsNormalCell());
  rows.push_back({"SwiftNet", "NAS", "HPD",
                  {},
                  57.4e6, 249.7e3, "95.1%"});
  rows.back().cells.push_back(models::MakeSwiftNet());
  rows.push_back({"RandWire", "RAND", "CIFAR10",
                  {},
                  111.0e6, 1.2e6, "93.6%"});
  rows.back().cells.push_back(models::MakeRandWireCifar10CellA());
  rows.back().cells.push_back(models::MakeRandWireCifar10CellB());
  rows.push_back({"RandWire", "RAND", "CIFAR100",
                  {},
                  160.0e6, 4.7e6, "74.5%"});
  rows.back().cells.push_back(models::MakeRandWireCifar100CellA());
  rows.back().cells.push_back(models::MakeRandWireCifar100CellB());
  rows.back().cells.push_back(models::MakeRandWireCifar100CellC());

  std::printf("Table 1: specification of the evaluated networks\n");
  std::printf("(ours = generated benchmark cells; paper = full published "
              "networks, so absolute\n counts differ — the scheduling "
              "experiments depend only on topology and tensor sizes)\n\n");
  std::printf("%-10s %-5s %-9s %10s %12s %12s %12s %7s %7s %7s\n", "NETWORK",
              "TYPE", "DATASET", "# NODES", "# MAC", "paper#MAC", "# WEIGHT",
              "paper", "EDGES", "TOP-1*");
  serenity::bench::PrintRule();
  serenity::bench::JsonRows json;
  for (const NetworkRow& row : rows) {
    std::int64_t macs = 0;
    std::int64_t weights = 0;
    int nodes = 0;
    int edges = 0;
    for (const graph::Graph& g : row.cells) {
      macs += graph::CountMacs(g);
      weights += graph::CountWeights(g);
      nodes += g.num_nodes();
      edges += g.num_edges();
    }
    std::printf("%-10s %-5s %-9s %10d %11.1fM %11.1fM %11.1fK %6.1fK %7d %7s\n",
                row.name, row.type, row.dataset, nodes,
                static_cast<double>(macs) / 1e6, row.paper_mac / 1e6,
                static_cast<double>(weights) / 1e3, row.paper_weight / 1e3,
                edges, row.paper_top1);
    json.Begin();
    json.Field("network", std::string(row.name));
    json.Field("type", std::string(row.type));
    json.Field("dataset", std::string(row.dataset));
    json.Field("nodes", static_cast<std::int64_t>(nodes));
    json.Field("edges", static_cast<std::int64_t>(edges));
    json.Field("macs", macs);
    json.Field("weights", weights);
  }
  std::printf("\n* Top-1 accuracy quoted from the paper (Table 1).\n\n");
  if (!json_path.empty()) return json.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintTable(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
