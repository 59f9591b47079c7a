// Flat-arena state store for the level-by-level walk of Algorithm 1
// (core/dp_scheduler.cc), exact or as a beam search.
//
// The walk visits the lattice of schedulable prefixes one level at a
// time, memoizing states on their *signature* — the bitset of scheduled
// nodes. The seed implementation kept each level as
// std::unordered_map<Bitset64, entry>, which heap-allocates a word vector
// per state, rehashes the full signature on every probe, and retains every
// level's keys until reconstruction. This store replaces that with:
//
//  - StateLevel: one level's states in SoA layout. Signature words live
//    back-to-back in a single uint64_t arena (state i occupies words
//    [i*W, (i+1)*W)), and the state's zero-indegree frontier mask in a
//    second arena of the same shape; footprint, best peak and the cached
//    Zobrist hash live in parallel transient arrays; the back-pointer
//    needed for schedule reconstruction is an 8-byte ReconRecord.
//    Deduplication runs through an open-addressing (linear-probe) table of
//    int32 state indices keyed by the cached hashes — no per-state
//    allocation anywhere. A candidate child is looked up before it is
//    derived: Find probes once, a state the level already holds is only
//    relaxed (peak, tie key, back-pointer), and only a new signature pays
//    for its frontier mask, free scan and floor before Insert fills the
//    slot Find returned.
//
//  - SignatureHasher: Zobrist hashing. Every node gets a fixed SplitMix64
//    key; hash(S) = XOR of the keys of S's members, so a child state's hash
//    is parent_hash ^ key(u) — one XOR instead of re-hashing the words.
//    Equality is always confirmed on the signature words, so hash collisions
//    cost a probe, never correctness.
//
//  - ExpansionTables: the graph-side constants of Algorithm 1 flattened
//    into contiguous word arenas — predecessor masks (for the zero-indegree
//    frontier scan and its incremental per-child update), per-buffer writer
//    masks (allocate-on-first-write) and per-node freeable-buffer lists
//    (deallocate-after-last-use as a word-wise `touchers ⊆ scheduled ∪ {u}`
//    subset check).
//
// Lifecycle of a level: Init → Find, then Relax or Insert (during
// expansion of the previous level) → Seal → read-only expansion →
// TakeReconAndRelease, which frees everything but the 8-byte records. A
// finished level therefore costs 8 bytes/state instead of the seed's
// ~(8*W + 40 + unordered_map node) bytes/state.
//
// Beam search is the same walk and the same lifecycle, with one step
// added after Seal: a level holding more than `width` states is replaced
// by the Select copy of its `width` best (core::ScheduleDpBeam).
#ifndef SERENITY_CORE_STATE_STORE_H_
#define SERENITY_CORE_STATE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/analysis.h"
#include "graph/graph.h"
#include "util/bitset.h"

namespace serenity::core {

// Back-pointer kept per state after its level's transients are dropped:
// which previous-level state it extends and by which node.
struct ReconRecord {
  std::int32_t prev_index = -1;
  std::int32_t last_node = -1;  // graph::NodeId of the appended node
};

// Reserve hint for the next level's arena and hash table, derived from the
// previous level's state count. Level widths on the paper's cells grow by
// well under 2× per level in the expanding phase of the search, so 2× the
// parent level makes rehashes rare without over-reserving: a too-small hint
// costs O(level) amortised rehash/copy work, a too-large one costs idle
// arena memory that is freed when the level's transients are dropped — the
// bias is slightly toward memory since the arenas dominate (16·W+40
// bytes/state vs 4 bytes/slot). The hint is clamped against the search's
// state cap: a run that exceeds `max_states` aborts anyway, so a huge
// sealed level must never pre-allocate an arena past the cap (the +1 keeps
// room for the state whose insertion trips it).
inline std::size_t NextLevelReserveHint(std::size_t prev_level_size,
                                        std::uint64_t max_states) {
  std::uint64_t hint = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(prev_level_size) * 2);
  if (max_states < hint) hint = std::max<std::uint64_t>(64, max_states + 1);
  return static_cast<std::size_t>(hint);
}

// Zobrist signature hashing with a fixed seed: deterministic across runs
// and platforms.
class SignatureHasher {
 public:
  explicit SignatureHasher(std::size_t num_nodes);

  std::uint64_t key(std::size_t node) const { return keys_[node]; }

  // Independent second key stream for candidate tie-breaking:
  // `parent_hash ^ tie_key(u)` identifies the transition (parent state,
  // appended node) intrinsically — it does not depend on state numbering,
  // insertion order or pruning. Equal-peak back-pointer ties resolve to the
  // lowest such key, which is what makes the reconstructed schedule
  // bit-identical with branch-and-bound pruning on or off (pruning reorders
  // state *creation* within a level, so any arrival-based tie-break would
  // drift). Distinct from key(): the natural `parent_hash ^ key(u)` is the
  // child's hash, identical for every candidate of one child and useless
  // as a discriminator.
  std::uint64_t tie_key(std::size_t node) const { return tie_keys_[node]; }

  // The candidate tie key used by both schedulers: appended node in the
  // high bits, *descending* (among equally optimal histories the chain
  // prefers appending the latest-declared node, which empirically keeps
  // the reconstructed schedule's arena placement and off-chip traffic at
  // the quality of the historical first-writer tie-break), with the mixed
  // parent hash below as a total-order discriminator.
  std::uint64_t candidate_tie(std::uint64_t parent_hash,
                              std::size_t node) const {
    return (static_cast<std::uint64_t>(
                ~static_cast<std::uint32_t>(node) & 0xffffffu)
            << 40) |
           ((parent_hash ^ tie_keys_[node]) >> 24);
  }

  // Hash of the empty signature (level 0).
  static constexpr std::uint64_t kEmptyHash = 0x9ae16a3b2f90404full;

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> tie_keys_;
};

// One scheduler level. See the file comment for layout and lifecycle.
class StateLevel {
 public:
  StateLevel() = default;

  // `expected_states` pre-sizes the arenas and the hash table.
  void Init(std::size_t words_per_state, std::size_t expected_states);

  std::size_t words_per_state() const { return words_; }

  // Where a signature sits in the table: `state` is its index, or -1 when
  // the level does not hold it yet, and then `slot` is the empty table
  // slot that Insert fills.
  struct Probe {
    std::int32_t state = -1;
    std::size_t slot = 0;
  };

  // Looks up `sig` (whose Zobrist hash is `hash`): one probe, which the
  // caller follows with Relax for a found state or Insert for a new one.
  // Grows the table first when one more state would pass its load factor,
  // so the returned slot stays valid until the next Find or Insert. Only
  // valid before Seal().
  Probe Find(const std::uint64_t* sig, std::uint64_t hash);

  // Offers found state `state` a new back-pointer: the lower peak wins,
  // and equal peaks resolve to the lower `tie_key` (an intrinsic candidate
  // id, see SignatureHasher::tie_key), so the winner is independent of
  // arrival order. The footprint and frontier mask are not offered: both
  // are functions of the signature alone, so the stored ones already hold.
  void Relax(std::int32_t state, std::int64_t peak, std::uint64_t tie_key,
             std::int32_t prev_index, std::int32_t last_node);

  // Creates `sig` in the empty slot that Find just returned for it, with
  // its W-word zero-indegree mask `frontier`.
  void Insert(const Probe& probe, const std::uint64_t* sig,
              const std::uint64_t* frontier, std::uint64_t hash,
              std::int64_t footprint, std::int64_t peak,
              std::uint64_t tie_key, std::int32_t prev_index,
              std::int32_t last_node);

  // Drops the hash table; states keep their insertion order. The accessors
  // below read any inserted state, before or after Seal().
  void Seal();

  std::size_t size() const { return cols_.count; }

  const std::uint64_t* signature(std::size_t i) const {
    return cols_.sig_arena.data() + i * words_;
  }
  // Zero-indegree frontier mask of state i (W words).
  const std::uint64_t* frontier(std::size_t i) const {
    return cols_.frontier_arena.data() + i * words_;
  }
  std::uint64_t hash(std::size_t i) const { return cols_.hashes[i]; }
  std::int64_t footprint(std::size_t i) const { return cols_.footprint[i]; }
  std::int64_t peak(std::size_t i) const { return cols_.peak[i]; }
  const ReconRecord& recon(std::size_t i) const { return cols_.recon[i]; }

  // Moves out the reconstruction records and frees every transient array
  // (signatures, frontier masks, hashes, footprints, peaks, table). The
  // level is dead afterwards.
  std::vector<ReconRecord> TakeReconAndRelease();

  // Bytes this level currently holds resident, by vector *capacity* (what
  // the allocator actually handed out, not just what is filled) — the
  // quantity a util::MemoryBudget reservation must cover. Valid in every
  // lifecycle phase.
  std::int64_t ResidentBytes() const;

  // What Init(words_per_state, expected_states) will reserve, computed
  // without allocating — used to charge a budget *before* the level grows.
  // Mirrors Init's reserve math exactly.
  static std::int64_t EstimateBytes(std::size_t words_per_state,
                                    std::size_t expected_states);

  // Compacted copy holding exactly the states in `keep` (sealed, in the
  // given order, frontier masks included) — the beam's post-seal width
  // cut. Only valid after Seal().
  StateLevel Select(const std::vector<std::int32_t>& keep) const;

 private:
  // The level's SoA arrays, grouped so Init and TakeReconAndRelease can
  // reset them in one assignment.
  struct Columns {
    std::vector<std::uint64_t> sig_arena;  // count * words signature words
    std::vector<std::uint64_t> frontier_arena;  // count * words mask words
    std::vector<std::uint64_t> hashes;     // cached Zobrist hash per state
    std::vector<std::int64_t> footprint;
    std::vector<std::int64_t> peak;
    std::vector<std::uint64_t> tie;  // winning candidate's intrinsic id
    std::vector<ReconRecord> recon;
    std::vector<std::int32_t> slots;  // open addressing; -1 = empty
    std::size_t count = 0;
  };

  void GrowTable();

  std::size_t words_ = 0;
  Columns cols_;
  bool sealed_ = false;
};

// Graph-side constants of Algorithm 1, flattened for the expansion hot
// loop. Self-contained: copies every word it needs into its own arenas.
// Read-only once built, so one serves every run over its graph.
class ExpansionTables {
 public:
  ExpansionTables(const graph::Graph& graph,
                  const graph::BufferUseTable& table,
                  const graph::AdjacencyBitsets& adjacency);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t words_per_state() const { return words_; }

  // Writes the zero-indegree frontier of `sig` (unscheduled nodes whose
  // predecessors are all scheduled) as a W-word mask. A full predecessor
  // scan: the schedulers call it once, for the root, and derive every other
  // state's mask with ChildFrontier.
  void FrontierMask(const std::uint64_t* sig, std::uint64_t* mask) const;

  // Derives the frontier mask of the child `sig ∪ {u}` (signature words
  // `child_sig`) from its parent's mask: u leaves, and every successor of u
  // whose predecessors are now all scheduled joins. Those newly ready
  // successors are also written to `newly_ready` (cleared first) for
  // ChildNextAllocFloor, so one successor scan serves both.
  void ChildFrontier(const std::uint64_t* parent_mask,
                     const std::uint64_t* child_sig, std::int32_t u,
                     std::uint64_t* child_mask,
                     std::vector<std::int32_t>* newly_ready) const;

  // Per-parent-state scratch for the branch-and-bound one-step frontier
  // floor (DESIGN.md "Branch-and-bound over levels"). For every frontier
  // node v,
  // `alloc[v-index]` is the EXACT number of bytes the step scheduling v
  // from this state allocates (its output size when no writer of v's
  // buffer has run, else 0). min1/min2/argmin summarize the array so the
  // per-transition child floor is O(1) + the newly-ready scan.
  struct FrontierAllocs {
    std::vector<std::int64_t> alloc;  // aligned with the frontier vector
    std::int64_t min1 = 0;            // min over the frontier (kNoAlloc if empty)
    std::int64_t min2 = 0;            // min excluding argmin
    std::int32_t argmin_node = -1;
    // Frontier nodes with alloc > 0 whose output buffer is shared with
    // another writer, as (buffer, node) sorted by buffer — the rare case
    // (co-frontier co-writers) where scheduling one zeroes the other's
    // alloc in the child.
    std::vector<std::pair<std::int32_t, std::int32_t>> shared_positive;
  };

  // Sentinel for "no frontier": an empty min. Any state with unscheduled
  // nodes has a non-empty frontier in a DAG, so callers only see this for
  // the full state, which has no next step to bound.
  static constexpr std::int64_t kNoAlloc =
      std::numeric_limits<std::int64_t>::max();

  void ComputeFrontierAllocs(const std::uint64_t* sig,
                             const std::vector<std::int32_t>& frontier,
                             FrontierAllocs* out) const;

  // Exact one-step frontier floor of the child `sig ∪ {u}` (whose
  // signature words are `child_sig`): min over the child's frontier of the
  // bytes its next step must allocate. The child's frontier is
  // (parent frontier \ {u}) ∪ `newly_ready` (ChildFrontier's output), and
  // the returned value is a pure function of the child signature — every
  // duplicate candidate would compute the same floor, so the DP computes it
  // only for a new child, and relax winners (and the reconstructed
  // schedule) stay bit-identical under pruning. Returns kNoAlloc when the
  // child is the full state.
  std::int64_t ChildNextAllocFloor(
      const std::uint64_t* child_sig, std::int32_t u,
      const FrontierAllocs& fa,
      const std::vector<std::int32_t>& newly_ready) const;

  // The two halves of scheduling `node` on top of state `sig` (which must
  // not contain it and must contain its predecessors), split so the walk
  // can cut a step on its peak, and look its child up, before it pays for
  // the free scan.
  //
  // StepPeak: the transient footprint once `node`'s output is allocated on
  // first write and before anything is freed — what the soft budget and
  // the incumbent step cut prune on. `footprint` is sig's footprint.
  std::int64_t StepPeak(const std::uint64_t* sig, std::int32_t node,
                        std::int64_t footprint) const;
  // FreedBytes: the bytes of every non-sink buffer whose last use is
  // `node` (touchers ⊆ sig ∪ {node}). The child's footprint is
  // StepPeak − FreedBytes.
  std::int64_t FreedBytes(const std::uint64_t* sig, std::int32_t node) const;

  // Bytes of the flattened graph-side constants (by vector capacity) — the
  // fixed part of a run's memory-budget reservation.
  std::int64_t ResidentBytes() const;

 private:
  std::size_t num_nodes_ = 0;
  std::size_t words_ = 0;
  std::uint64_t last_word_mask_ = 0;  // valid bits of the final word

  std::vector<std::uint64_t> preds_;           // node-major, num_nodes * W
  std::vector<std::uint64_t> buffer_writers_;  // buffer-major, buffers * W
  std::vector<std::int32_t> own_buffer_;       // node -> output buffer
  std::vector<std::int64_t> own_size_;         // node -> output buffer bytes
  // Whether the node's output buffer has another writer (a pure graph
  // property). A sole writer that is itself unscheduled — always the case
  // for the frontier nodes the alloc probes test — cannot have an
  // allocated output, so the common case skips the writer-word intersect
  // entirely; this is what makes the always-on one-step floor cheap.
  std::vector<std::uint8_t> has_cowriter_;     // node -> shared output buffer

  // Flattened non-sink touched buffers per node (sinks are never freed, so
  // they are dropped at build time).
  struct Freeable {
    std::uint32_t touchers_offset;  // into touchers_arena_, W words
    std::int64_t size_bytes;
  };
  std::vector<Freeable> freeables_;
  std::vector<std::uint32_t> freeable_begin_;  // num_nodes + 1 offsets
  std::vector<std::uint64_t> touchers_arena_;

  // Flattened successor adjacency for the newly-ready scan of
  // ChildFrontier.
  std::vector<std::int32_t> succs_arena_;
  std::vector<std::uint32_t> succ_begin_;  // num_nodes + 1 offsets
};

}  // namespace serenity::core

#endif  // SERENITY_CORE_STATE_STORE_H_
