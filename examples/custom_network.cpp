// Bring-your-own-network tutorial: build an irregular graph with
// GraphBuilder, verify that identity graph rewriting really is an identity
// by executing both versions on the reference runtime, persist the graph to
// disk, and reload it.
//
//   $ build/examples/custom_network [saved_graph.serenity]
#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "graph/builder.h"
#include "rewrite/rewriter.h"
#include "runtime/executor.h"
#include "runtime/tensor.h"
#include "serialize/serialize.h"
#include "util/rng.h"

namespace {

serenity::graph::Graph BuildCustomNetwork() {
  using serenity::graph::TensorShape;
  serenity::graph::GraphBuilder b("custom_audio_net");
  // A small keyword-spotting-style network over a 32x32 spectrogram.
  const auto spec = b.Input(TensorShape{1, 32, 32, 1}, "spectrogram");
  const auto stem = b.Conv2d(spec, 24, 3, 2, serenity::graph::Padding::kSame,
                             1, "stem");
  // Irregular block: three branches of different depth + a late skip.
  const auto b0 = b.Conv1x1(stem, 8, "b0");
  const auto b1 = b.SepConv(stem, 8, 3, 1, "b1");
  const auto b2 = b.DilConv(stem, 8, 3, 1, "b2");
  const auto cat = b.Concat({b0, b1, b2}, "concat");
  const auto fuse = b.Conv1x1(cat, 24, "fuse");
  const auto skip = b.DepthwiseConv2d(stem, 3, 1,
                                      serenity::graph::Padding::kSame, 1,
                                      "stem_skip");
  const auto merged = b.Add({fuse, skip}, "merge");
  const auto pooled = b.GlobalAvgPool2d(b.Relu(merged, "relu"), "gap");
  (void)b.Dense(pooled, 12, "keyword_logits");
  return std::move(b).Build();
}

}  // namespace

int main(int argc, char** argv) {
  using serenity::runtime::Tensor;
  const serenity::graph::Graph net = BuildCustomNetwork();
  std::printf("built '%s': %d ops / %lld MACs / %lld parameters\n",
              net.name().c_str(), net.num_nodes(),
              static_cast<long long>(serenity::graph::CountMacs(net)),
              static_cast<long long>(serenity::graph::CountWeights(net)));

  // 1. Rewrite and prove the transformation preserves the function.
  const auto rewritten = serenity::rewrite::RewriteGraph(net);
  std::printf("rewriting applied %d pattern(s): %d -> %d nodes\n",
              rewritten.report.TotalPatterns(), rewritten.report.nodes_before,
              rewritten.report.nodes_after);

  serenity::util::Rng rng(2026);
  const Tensor input = Tensor::Random(net.node(0).shape, rng);
  serenity::runtime::ReferenceExecutor original_exec(net);
  original_exec.Run({input});
  serenity::runtime::ReferenceExecutor rewritten_exec(rewritten.graph);
  rewritten_exec.Run({input});
  const auto expect = original_exec.SinkValues();
  const auto got = rewritten_exec.SinkValues();
  float worst = 0.0f;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    worst = std::max(worst, expect[i].MaxAbsDiff(got[i]));
  }
  std::printf("max |original - rewritten| over outputs: %.2e  %s\n",
              static_cast<double>(worst),
              worst < 1e-3f ? "(identity preserved)" : "(MISMATCH!)");

  // 2. Schedule it.
  const auto result = serenity::core::Pipeline().Run(net);
  if (!result.status.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  std::printf("SERENITY peak activation footprint: %.1f KB\n",
              static_cast<double>(result.peak_bytes) / 1024.0);

  // 3. Persist and reload.
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/custom_audio_net.serenity";
  serenity::serialize::SaveToFile(net, path);
  const serenity::graph::Graph reloaded =
      serenity::serialize::LoadFromFile(path);
  std::printf("saved to %s and reloaded: %d ops, graphs %s\n", path.c_str(),
              reloaded.num_nodes(),
              serenity::serialize::ToText(net) ==
                      serenity::serialize::ToText(reloaded)
                  ? "identical"
                  : "DIFFER");
  return worst < 1e-3f ? 0 : 1;
}
