#include "core/state_store.h"

#include <algorithm>

#include "util/logging.h"

namespace serenity::core {

namespace {

// SplitMix64 step — same generator as util::Rng, inlined so the hasher has
// no dependency on the RNG's stream position semantics.
std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t NextPowerOfTwo(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Open-addressing capacity for load factor <= 2/3 at `states` states.
std::size_t TableSlotsFor(std::size_t states) {
  return NextPowerOfTwo(std::max<std::size_t>(16, states * 3 / 2));
}

}  // namespace

SignatureHasher::SignatureHasher(std::size_t num_nodes) {
  // Fixed seeds: hashes and tie keys (and therefore back-pointer
  // tie-breaks) are reproducible across runs and platforms.
  std::uint64_t state = 0x5e7e217f9a3c4d1bull;
  keys_.resize(num_nodes);
  for (std::uint64_t& key : keys_) key = SplitMix64(state);
  std::uint64_t tie_state = 0x3c6ef372fe94f82aull;
  tie_keys_.resize(num_nodes);
  for (std::uint64_t& key : tie_keys_) key = SplitMix64(tie_state);
}

void StateLevel::Init(std::size_t words_per_state,
                      std::size_t expected_states) {
  SERENITY_CHECK_GT(words_per_state, 0u);
  words_ = words_per_state;
  sealed_ = false;
  cols_ = Columns{};
  const std::size_t reserve = expected_states + 1;
  cols_.sig_arena.reserve(reserve * words_);
  cols_.frontier_arena.reserve(reserve * words_);
  cols_.hashes.reserve(reserve);
  cols_.footprint.reserve(reserve);
  cols_.peak.reserve(reserve);
  cols_.tie.reserve(reserve);
  cols_.recon.reserve(reserve);
  cols_.slots.assign(TableSlotsFor(reserve), -1);
}

StateLevel::Probe StateLevel::Find(const std::uint64_t* sig,
                                   std::uint64_t hash) {
  SERENITY_CHECK(!sealed_);
  if ((cols_.count + 1) * 3 > cols_.slots.size() * 2) GrowTable();
  const std::size_t mask = cols_.slots.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  for (;;) {
    const std::int32_t s = cols_.slots[slot];
    if (s < 0) return Probe{-1, slot};
    const std::size_t si = static_cast<std::size_t>(s);
    if (cols_.hashes[si] == hash &&
        util::SpanEqual(cols_.sig_arena.data() + si * words_, sig, words_)) {
      return Probe{s, slot};
    }
    slot = (slot + 1) & mask;
  }
}

void StateLevel::Relax(std::int32_t state, std::int64_t peak,
                       std::uint64_t tie_key, std::int32_t prev_index,
                       std::int32_t last_node) {
  const std::size_t si = static_cast<std::size_t>(state);
  // The lower peak wins; equal peaks resolve to the lower intrinsic tie key
  // so the surviving back-pointer is independent of candidate arrival
  // order (and therefore of pruning).
  if (peak < cols_.peak[si] ||
      (peak == cols_.peak[si] && tie_key < cols_.tie[si])) {
    cols_.peak[si] = peak;
    cols_.tie[si] = tie_key;
    cols_.recon[si] = ReconRecord{prev_index, last_node};
  }
}

void StateLevel::Insert(const Probe& probe, const std::uint64_t* sig,
                        const std::uint64_t* frontier, std::uint64_t hash,
                        std::int64_t footprint, std::int64_t peak,
                        std::uint64_t tie_key, std::int32_t prev_index,
                        std::int32_t last_node) {
  SERENITY_CHECK(!sealed_);
  SERENITY_CHECK_LT(probe.state, 0);
  cols_.slots[probe.slot] = static_cast<std::int32_t>(cols_.count);
  cols_.sig_arena.insert(cols_.sig_arena.end(), sig, sig + words_);
  cols_.frontier_arena.insert(cols_.frontier_arena.end(), frontier,
                              frontier + words_);
  cols_.hashes.push_back(hash);
  cols_.footprint.push_back(footprint);
  cols_.peak.push_back(peak);
  cols_.tie.push_back(tie_key);
  cols_.recon.push_back(ReconRecord{prev_index, last_node});
  ++cols_.count;
}

void StateLevel::GrowTable() {
  const std::size_t capacity = cols_.slots.size() * 2;
  cols_.slots.assign(capacity, -1);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < cols_.count; ++i) {
    std::size_t slot = static_cast<std::size_t>(cols_.hashes[i]) & mask;
    while (cols_.slots[slot] >= 0) slot = (slot + 1) & mask;
    cols_.slots[slot] = static_cast<std::int32_t>(i);
  }
}

void StateLevel::Seal() {
  SERENITY_CHECK(!sealed_);
  sealed_ = true;
  cols_.slots = {};
}

std::int64_t StateLevel::ResidentBytes() const {
  std::int64_t bytes = 0;
  bytes += static_cast<std::int64_t>(cols_.sig_arena.capacity()) * 8;
  bytes += static_cast<std::int64_t>(cols_.frontier_arena.capacity()) * 8;
  bytes += static_cast<std::int64_t>(cols_.hashes.capacity()) * 8;
  bytes += static_cast<std::int64_t>(cols_.footprint.capacity()) * 8;
  bytes += static_cast<std::int64_t>(cols_.peak.capacity()) * 8;
  bytes += static_cast<std::int64_t>(cols_.tie.capacity()) * 8;
  bytes += static_cast<std::int64_t>(cols_.recon.capacity() *
                                     sizeof(ReconRecord));
  bytes += static_cast<std::int64_t>(cols_.slots.capacity()) * 4;
  return bytes;
}

std::int64_t StateLevel::EstimateBytes(std::size_t words_per_state,
                                       std::size_t expected_states) {
  const std::size_t reserve = expected_states + 1;
  return
      // signature + frontier arenas
      static_cast<std::int64_t>(reserve * words_per_state) * 16 +
      static_cast<std::int64_t>(reserve) *
          // hashes + footprint + peak + tie + recon
          (8 + 8 + 8 + 8 + static_cast<std::int64_t>(sizeof(ReconRecord))) +
      static_cast<std::int64_t>(TableSlotsFor(reserve)) * 4;
}

std::vector<ReconRecord> StateLevel::TakeReconAndRelease() {
  SERENITY_CHECK(sealed_);
  std::vector<ReconRecord> recon = std::move(cols_.recon);
  cols_ = Columns{};
  return recon;
}

StateLevel StateLevel::Select(const std::vector<std::int32_t>& keep) const {
  SERENITY_CHECK(sealed_);
  StateLevel out;
  out.words_ = words_;
  out.sealed_ = true;
  Columns& dst = out.cols_;
  const Columns& src = cols_;
  dst.count = keep.size();
  dst.sig_arena.reserve(keep.size() * words_);
  dst.frontier_arena.reserve(keep.size() * words_);
  dst.hashes.reserve(keep.size());
  dst.footprint.reserve(keep.size());
  dst.peak.reserve(keep.size());
  dst.tie.reserve(keep.size());
  dst.recon.reserve(keep.size());
  for (const std::int32_t index : keep) {
    const std::size_t i = static_cast<std::size_t>(index);
    SERENITY_CHECK_LT(i, src.count);
    const std::uint64_t* sig = src.sig_arena.data() + i * words_;
    dst.sig_arena.insert(dst.sig_arena.end(), sig, sig + words_);
    const std::uint64_t* mask = src.frontier_arena.data() + i * words_;
    dst.frontier_arena.insert(dst.frontier_arena.end(), mask, mask + words_);
    dst.hashes.push_back(src.hashes[i]);
    dst.footprint.push_back(src.footprint[i]);
    dst.peak.push_back(src.peak[i]);
    dst.tie.push_back(src.tie[i]);
    dst.recon.push_back(src.recon[i]);
  }
  return out;
}

ExpansionTables::ExpansionTables(const graph::Graph& graph,
                                 const graph::BufferUseTable& table,
                                 const graph::AdjacencyBitsets& adjacency) {
  num_nodes_ = static_cast<std::size_t>(graph.num_nodes());
  words_ = (num_nodes_ + 63) / 64;
  const std::size_t tail = num_nodes_ & 63;
  last_word_mask_ =
      tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;

  preds_.resize(num_nodes_ * words_);
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    const util::Bitset64& p = adjacency.preds[u];
    SERENITY_CHECK_EQ(p.num_words(), words_);
    std::copy(p.words(), p.words() + words_, preds_.data() + u * words_);
  }

  const std::size_t num_buffers =
      static_cast<std::size_t>(graph.num_buffers());
  buffer_writers_.assign(num_buffers * words_, 0);
  touchers_arena_.resize(num_buffers * words_);
  for (std::size_t b = 0; b < num_buffers; ++b) {
    const graph::BufferUse& use = table.buffers[b];
    for (const graph::NodeId w : use.writers) {
      util::SpanSetBit(buffer_writers_.data() + b * words_,
                       static_cast<std::size_t>(w));
    }
    SERENITY_CHECK_EQ(use.touchers.num_words(), words_);
    std::copy(use.touchers.words(), use.touchers.words() + words_,
              touchers_arena_.data() + b * words_);
  }

  own_buffer_.resize(num_nodes_);
  own_size_.resize(num_nodes_);
  has_cowriter_.resize(num_nodes_);
  freeable_begin_.assign(num_nodes_ + 1, 0);
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    const graph::Node& node = graph.node(static_cast<graph::NodeId>(u));
    own_buffer_[u] = static_cast<std::int32_t>(node.buffer);
    own_size_[u] =
        table.buffers[static_cast<std::size_t>(node.buffer)].size_bytes;
    has_cowriter_[u] =
        table.buffers[static_cast<std::size_t>(node.buffer)].writers.size() >=
                2
            ? 1
            : 0;
    for (const graph::BufferId b : table.touched_buffers[u]) {
      const graph::BufferUse& use =
          table.buffers[static_cast<std::size_t>(b)];
      if (use.is_sink) continue;  // never freed — drop at build time
      freeables_.push_back(Freeable{
          static_cast<std::uint32_t>(static_cast<std::size_t>(b) * words_),
          use.size_bytes});
    }
    freeable_begin_[u + 1] = static_cast<std::uint32_t>(freeables_.size());
  }
  succ_begin_.assign(num_nodes_ + 1, 0);
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    const auto& consumers = graph.consumers(static_cast<graph::NodeId>(u));
    for (const graph::NodeId c : consumers) {
      succs_arena_.push_back(static_cast<std::int32_t>(c));
    }
    succ_begin_[u + 1] = static_cast<std::uint32_t>(succs_arena_.size());
  }
}

void ExpansionTables::FrontierMask(const std::uint64_t* sig,
                                   std::uint64_t* mask) const {
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t candidates = ~sig[w];
    if (w + 1 == words_) candidates &= last_word_mask_;
    std::uint64_t ready = 0;
    while (candidates != 0) {
      const int bit = __builtin_ctzll(candidates);
      candidates &= candidates - 1;
      const std::size_t u = w * 64 + static_cast<std::size_t>(bit);
      if (util::SpanIsSubsetOf(preds_.data() + u * words_, sig, words_)) {
        ready |= std::uint64_t{1} << bit;
      }
    }
    mask[w] = ready;
  }
}

void ExpansionTables::ChildFrontier(
    const std::uint64_t* parent_mask, const std::uint64_t* child_sig,
    std::int32_t u, std::uint64_t* child_mask,
    std::vector<std::int32_t>* newly_ready) const {
  std::copy(parent_mask, parent_mask + words_, child_mask);
  const std::size_t ui = static_cast<std::size_t>(u);
  child_mask[ui >> 6] &= ~(std::uint64_t{1} << (ui & 63));
  newly_ready->clear();
  for (std::uint32_t i = succ_begin_[ui]; i < succ_begin_[ui + 1]; ++i) {
    const std::int32_t v = succs_arena_[i];
    const std::size_t vi = static_cast<std::size_t>(v);
    if (util::SpanIsSubsetOf(preds_.data() + vi * words_, child_sig,
                             words_)) {
      util::SpanSetBit(child_mask, vi);
      newly_ready->push_back(v);
    }
  }
}

void ExpansionTables::ComputeFrontierAllocs(
    const std::uint64_t* sig, const std::vector<std::int32_t>& frontier,
    FrontierAllocs* out) const {
  out->alloc.clear();
  out->shared_positive.clear();
  out->min1 = kNoAlloc;
  out->min2 = kNoAlloc;
  out->argmin_node = -1;
  for (const std::int32_t v : frontier) {
    const std::size_t vi = static_cast<std::size_t>(v);
    const std::int32_t buffer = own_buffer_[vi];
    // Fast path: a frontier node is unscheduled, so a sole-writer output
    // cannot be allocated yet — only shared buffers need the writer-word
    // intersect (has_cowriter_ is the per-node precompute).
    std::int64_t alloc = own_size_[vi];
    if (has_cowriter_[vi] != 0) {
      const std::uint64_t* writers =
          buffer_writers_.data() + static_cast<std::size_t>(buffer) * words_;
      if (util::SpanIntersects(writers, sig, words_)) alloc = 0;
    }
    out->alloc.push_back(alloc);
    if (alloc < out->min1) {
      out->min2 = out->min1;
      out->min1 = alloc;
      out->argmin_node = v;
    } else if (alloc < out->min2) {
      out->min2 = alloc;
    }
    if (alloc > 0 && has_cowriter_[vi] != 0) {
      // A positive alloc on a *shared* buffer can be zeroed by a sibling
      // writer in the same frontier; remember it for ChildNextAllocFloor.
      out->shared_positive.push_back({buffer, v});
    }
  }
  std::sort(out->shared_positive.begin(), out->shared_positive.end());
}

std::int64_t ExpansionTables::ChildNextAllocFloor(
    const std::uint64_t* child_sig, std::int32_t u, const FrontierAllocs& fa,
    const std::vector<std::int32_t>& newly_ready) const {
  // Part 1: surviving parent-frontier nodes. Their alloc in the child
  // equals their alloc in the parent, except that scheduling u zeroes any
  // sibling writer of u's own buffer (u writes exactly its output buffer).
  std::int64_t floor = u == fa.argmin_node ? fa.min2 : fa.min1;
  if (!fa.shared_positive.empty()) {
    const std::size_t ui = static_cast<std::size_t>(u);
    const std::int32_t buffer = own_buffer_[ui];
    const auto begin = std::lower_bound(
        fa.shared_positive.begin(), fa.shared_positive.end(),
        std::pair<std::int32_t, std::int32_t>{buffer, -1});
    for (auto it = begin;
         it != fa.shared_positive.end() && it->first == buffer; ++it) {
      if (it->second != u) {
        floor = 0;
        break;
      }
    }
  }
  // Part 2: successors of u that just became ready.
  for (const std::int32_t v : newly_ready) {
    const std::size_t w = static_cast<std::size_t>(v);
    std::int64_t alloc = own_size_[w];
    if (has_cowriter_[w] != 0) {
      const std::uint64_t* writers =
          buffer_writers_.data() +
          static_cast<std::size_t>(own_buffer_[w]) * words_;
      if (util::SpanIntersects(writers, child_sig, words_)) alloc = 0;
    }
    floor = std::min(floor, alloc);
    if (floor == 0) break;
  }
  return floor;
}

std::int64_t ExpansionTables::ResidentBytes() const {
  return static_cast<std::int64_t>(
      preds_.capacity() * 8 + buffer_writers_.capacity() * 8 +
      touchers_arena_.capacity() * 8 + own_buffer_.capacity() * 4 +
      own_size_.capacity() * 8 + has_cowriter_.capacity() +
      freeables_.capacity() * sizeof(Freeable) +
      freeable_begin_.capacity() * 4 + succs_arena_.capacity() * 4 +
      succ_begin_.capacity() * 4);
}

std::int64_t ExpansionTables::StepPeak(const std::uint64_t* sig,
                                       std::int32_t node,
                                       std::int64_t footprint) const {
  const std::size_t u = static_cast<std::size_t>(node);
  // Allocate the output on first write (Algorithm 1 line 13). A sole-writer
  // node always allocates: u itself is unscheduled in sig, so nothing can
  // have written its buffer yet.
  if (has_cowriter_[u] != 0) {
    const std::uint64_t* writers =
        buffer_writers_.data() +
        static_cast<std::size_t>(own_buffer_[u]) * words_;
    if (util::SpanIntersects(writers, sig, words_)) return footprint;
  }
  return footprint + own_size_[u];
}

std::int64_t ExpansionTables::FreedBytes(const std::uint64_t* sig,
                                         std::int32_t node) const {
  // Deallocate buffers whose last use is this node (lines 15-19): freed iff
  // touchers ⊆ scheduled ∪ {u}, tested word-wise.
  const std::size_t u = static_cast<std::size_t>(node);
  const std::size_t u_word = u >> 6;
  const std::uint64_t u_bit = std::uint64_t{1} << (u & 63);
  std::int64_t freed = 0;
  for (std::uint32_t f = freeable_begin_[u]; f < freeable_begin_[u + 1];
       ++f) {
    const std::uint64_t* touchers =
        touchers_arena_.data() + freeables_[f].touchers_offset;
    bool last_use = true;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t scheduled = sig[w];
      if (w == u_word) scheduled |= u_bit;
      if ((touchers[w] & ~scheduled) != 0) {
        last_use = false;
        break;
      }
    }
    if (last_use) freed += freeables_[f].size_bytes;
  }
  return freed;
}

}  // namespace serenity::core
