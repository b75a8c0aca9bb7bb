// Tests for the adaptive coherence engine (sdsm::coherence): the
// deterministic write census, policy classification (replicate after a
// sustained sole-writer streak, multi-writer pages never classified, and
// silent demotion), the extended write-notice codec (static encoding stays
// byte-identical to the historical wire format), replicate end to end on
// the DSM, static-mode inertness (zero adaptive counters, traffic identical
// to the baseline), and the adaptive contract on the kernels: bit-exact
// checksums and never more messages than static.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/api/api.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/coherence/coherence.hpp"
#include "src/coherence/census.hpp"
#include "src/coherence/policy.hpp"
#include "src/common/buffer.hpp"
#include "src/common/stats.hpp"
#include "src/core/dsm.hpp"
#include "src/core/interval.hpp"
#include "src/harness/options.hpp"

namespace sdsm::coherence {
namespace {

TEST(CoherencePolicyEnum, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_coherence_policy("static"), CoherencePolicy::kStatic);
  EXPECT_EQ(parse_coherence_policy("adaptive"), CoherencePolicy::kAdaptive);
  EXPECT_FALSE(parse_coherence_policy("eager").has_value());
  EXPECT_EQ(coherence_policy_name(CoherencePolicy::kStatic), "static");
  EXPECT_EQ(coherence_policy_name(CoherencePolicy::kAdaptive), "adaptive");
}

TEST(CoherencePolicyEnum, HarnessFlagParses) {
  const char* argv[] = {"prog", "--coherence=adaptive"};
  const harness::Options o =
      harness::Options::parse(2, const_cast<char**>(argv));
  EXPECT_EQ(o.coherence, CoherencePolicy::kAdaptive);

  const char* argv2[] = {"prog"};
  EXPECT_EQ(harness::Options::parse(1, const_cast<char**>(argv2)).coherence,
            CoherencePolicy::kStatic);
}

// --- WriteCensus -----------------------------------------------------------

TEST(WriteCensus, SameEpochFoldsCommute) {
  // Two intervals in one epoch (a GC inner round) add; streak is counted
  // per epoch, not per interval.
  WriteCensus c;
  c.fold(7, 1, 100, 3);
  c.fold(7, 1, 50, 3);
  const WriteCensus::Entry* e = c.find(7);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->writers.size(), 1u);
  EXPECT_EQ(e->writers[0].score, 150u);
  EXPECT_EQ(e->writers[0].streak, 1u);
}

TEST(WriteCensus, StreakCountsConsecutiveEpochsOnly) {
  WriteCensus c;
  c.fold(7, 1, 100, 1);
  c.fold(7, 1, 100, 2);
  EXPECT_EQ(c.find(7)->writers[0].streak, 2u);
  c.fold(7, 1, 100, 5);  // gap: the streak restarts
  EXPECT_EQ(c.find(7)->writers[0].streak, 1u);
  // The carried score decayed by the 3 idle epochs before the add.
  EXPECT_EQ(c.find(7)->writers[0].score, (150u >> 3) + 100u);
}

TEST(WriteCensus, PruneDropsDecayedWritersAndEmptyPages) {
  WriteCensus c;
  c.fold(7, 1, 2, 1);    // tiny score: gone after 2 idle epochs
  c.fold(7, 2, 1 << 20, 1);
  c.fold(9, 3, 4, 1);
  c.prune(4);
  ASSERT_NE(c.find(7), nullptr);
  EXPECT_EQ(c.find(7)->writers.size(), 1u);  // writer 1 decayed out
  EXPECT_EQ(c.find(7)->writers[0].node, 2u);
  EXPECT_EQ(c.find(9), nullptr);  // whole page decayed out
}

// --- PolicyEngine ----------------------------------------------------------

TEST(PolicyEngine, SoleWriterReplicatesAfterStreak) {
  PolicyEngine pe;
  pe.fold_write(7, 1, 1000);
  pe.tick();  // streak 1 < kReplEpochs: still unclassified
  EXPECT_FALSE(pe.should_inline(7));

  pe.fold_write(7, 1, 1000);
  pe.tick();  // streak 2: replicate
  EXPECT_TRUE(pe.should_inline(7));
}

TEST(PolicyEngine, ReplicatedPageStaysThroughIdleEpochsThenDemotes) {
  PolicyEngine pe;
  pe.fold_write(7, 1, 4);
  pe.tick();
  pe.fold_write(7, 1, 4);
  pe.tick();
  EXPECT_TRUE(pe.should_inline(7));
  pe.tick();  // idle epoch: score (6) still nonzero after decay — sticky
  EXPECT_TRUE(pe.should_inline(7));
  pe.tick();  // score decays to zero: silent demotion
  EXPECT_FALSE(pe.should_inline(7));
}

TEST(PolicyEngine, ReplicatedPageDemotesWhenASecondWriterAppears) {
  PolicyEngine pe;
  pe.fold_write(7, 1, 1000);
  pe.tick();
  pe.fold_write(7, 1, 1000);
  pe.tick();
  ASSERT_TRUE(pe.should_inline(7));
  pe.fold_write(7, 1, 1000);
  pe.fold_write(7, 2, 1000);
  pe.tick();
  EXPECT_FALSE(pe.should_inline(7));
}

TEST(PolicyEngine, MultiWriterPagesStayUnclassified) {
  // A page with more than one writer in the census keeps the lazy
  // invalidate+fetch protocol, whatever the order of its writes.  The
  // rotations are the serial reduction schedule's hand-off: a chunk's
  // contributors write it in turn, one barrier epoch each.
  struct Pattern {
    const char* name;
    std::vector<NodeId> (*writers)(std::uint32_t epoch);
  };
  const Pattern patterns[] = {
      {"two writers in the same epoch",
       [](std::uint32_t) { return std::vector<NodeId>{1, 2}; }},
      {"two alternating writers",
       [](std::uint32_t e) { return std::vector<NodeId>{1 + e % 2}; }},
      {"4-way rotation",
       [](std::uint32_t e) { return std::vector<NodeId>{e % 4}; }},
      {"8-way rotation",
       [](std::uint32_t e) { return std::vector<NodeId>{e % 8}; }},
  };
  for (const Pattern& pattern : patterns) {
    PolicyEngine pe;
    for (std::uint32_t e = 0; e < 12; ++e) {
      for (const NodeId w : pattern.writers(e)) pe.fold_write(7, w, 1000);
      pe.tick();
      EXPECT_FALSE(pe.should_inline(7)) << pattern.name << ", epoch " << e;
    }
  }
}

TEST(PolicyEngine, ResetClearsEverything) {
  PolicyEngine pe;
  pe.fold_write(7, 1, 1000);
  pe.tick();
  pe.fold_write(7, 1, 1000);
  pe.tick();
  ASSERT_TRUE(pe.should_inline(7));
  pe.reset();
  EXPECT_EQ(pe.epoch(), 0u);
  EXPECT_FALSE(pe.should_inline(7));
}

// --- Wire codec ------------------------------------------------------------

TEST(NoticeCodec, StaticEncodingIsByteIdenticalToHistoricalFormat) {
  // Under the static policy every notice has empty inline_diff and
  // diff_bytes 0, and the encoding must be exactly the pre-coherence
  // format: page u32 + a single {0, 1} flag byte.
  core::IntervalMeta m;
  m.id = core::IntervalId{2, 9};
  m.vc = core::VectorClock(4);
  m.vc.set(2, 9);
  m.notices.resize(2);
  m.notices[0].page = 5;
  m.notices[1].page = 17;
  m.notices[1].whole_page = true;
  Writer w;
  m.serialize(w);

  Writer expected;
  expected.put<std::uint32_t>(2);
  expected.put<std::uint32_t>(9);
  m.vc.serialize(expected);
  expected.put<std::uint32_t>(2);  // notice count
  expected.put<std::uint32_t>(5);
  expected.put<std::uint8_t>(0);
  expected.put<std::uint32_t>(17);
  expected.put<std::uint8_t>(1);
  EXPECT_EQ(w.bytes(), expected.bytes());
}

TEST(NoticeCodec, InlineDiffAndCensusSizeRoundTrip) {
  core::IntervalMeta m;
  m.id = core::IntervalId{1, 4};
  m.vc = core::VectorClock(2);
  m.vc.set(1, 4);
  core::WriteNotice inlined;
  inlined.page = 11;
  inlined.whole_page = true;
  inlined.inline_diff = {0xde, 0xad, 0xbe, 0xef};
  core::WriteNotice census_only;
  census_only.page = 12;
  census_only.diff_bytes = 4096;
  m.notices = {inlined, census_only};

  Writer w;
  m.serialize(w);
  auto bytes = w.take();
  Reader r(bytes);
  const core::IntervalMeta out = core::IntervalMeta::deserialize(r);
  ASSERT_EQ(out.notices.size(), 2u);
  EXPECT_TRUE(out.notices[0].whole_page);
  EXPECT_EQ(out.notices[0].inline_diff, inlined.inline_diff);
  EXPECT_EQ(out.notices[0].diff_bytes, 4u);  // recovered from the payload
  EXPECT_TRUE(out.notices[1].inline_diff.empty());
  EXPECT_EQ(out.notices[1].diff_bytes, 4096u);
}

// --- End to end ------------------------------------------------------------

using apps::checksum_close;

TEST(CoherenceEndToEnd, SoleWriterPageReplicatesOnTheDsm) {
  // Node 0 writes one page in every interval, alternating between two
  // slots so no reader races it, and nodes 1-3 read the slot it wrote
  // before the last barrier: a sole writer in consecutive epochs, the
  // shape replicate serves.  Adaptive readers take the diff from the
  // write notice instead of faulting and fetching.
  constexpr int kIntervals = 12;
  struct Run {
    std::uint64_t read_faults, messages, replications;
  };
  const auto run = [](CoherencePolicy policy) {
    core::DsmConfig cfg;
    cfg.num_nodes = 4;
    cfg.region_bytes = 1u << 20;
    cfg.coherence = policy;
    core::DsmRuntime rt(cfg);
    const auto slots = rt.alloc_global<std::int64_t>(2);
    std::atomic<int> wrong{0};
    rt.run([&](core::DsmNode& self) {
      std::int64_t* slot = self.ptr(slots);
      for (int i = 1; i <= kIntervals; ++i) {
        if (self.id() == 0) {
          slot[i % 2] = i;
        } else if (i > 1 && slot[(i - 1) % 2] != i - 1) {
          ++wrong;
        }
        self.barrier();
      }
      if (slot[kIntervals % 2] != kIntervals) ++wrong;
    });
    EXPECT_EQ(wrong.load(), 0) << coherence_policy_name(policy);
    return Run{rt.stats().read_faults.get(), rt.total_messages(),
               rt.stats().replications.get()};
  };
  const Run st = run(CoherencePolicy::kStatic);
  const Run ad = run(CoherencePolicy::kAdaptive);
  EXPECT_EQ(st.replications, 0u);
  EXPECT_GT(ad.replications, 0u);
  EXPECT_LT(ad.read_faults, st.read_faults);
  EXPECT_LT(ad.messages, st.messages);
}

TEST(CoherenceEndToEnd, StaticModeIsInertAndAdaptiveIsBitExact) {
  // pagerank: block-partitioned rank pages.  The adaptive run must
  // reproduce the static checksum BIT-exactly (same arithmetic; census
  // sizes in the notices and ghost zones change no value) and never send
  // more messages than static.
  apps::pagerank::Params p;
  p.num_vertices = 2048;
  p.edges_per_vertex = 4;
  p.num_steps = 8;
  p.nprocs = 4;
  const auto seq = apps::pagerank::run_seq(p);

  for (const api::Backend b :
       {api::Backend::kTmkBase, api::Backend::kTmkOptimized}) {
    api::BackendOptions sopts = apps::pagerank::default_options();
    const auto rs = apps::pagerank::run(b, p, sopts);
    // Static mode is inert: no decisions, counters identically zero.
    EXPECT_EQ(rs.tmk.replications, 0u) << api::backend_name(b);
    EXPECT_EQ(rs.tmk.migrations, 0u) << api::backend_name(b);
    EXPECT_EQ(rs.tmk.ghost_promotions, 0u) << api::backend_name(b);
    EXPECT_TRUE(checksum_close(seq.checksum, rs.checksum));

    api::BackendOptions aopts = apps::pagerank::default_options();
    aopts.coherence = CoherencePolicy::kAdaptive;
    const auto ra = apps::pagerank::run(b, p, aopts);
    EXPECT_EQ(ra.checksum, rs.checksum) << api::backend_name(b)
                                        << ": adaptive must be bit-exact";
    EXPECT_EQ(ra.steps_run, rs.steps_run);
    EXPECT_EQ(ra.tmk.migrations, 0u) << api::backend_name(b);
    EXPECT_LE(ra.messages, rs.messages) << api::backend_name(b);
  }
}

TEST(CoherenceEndToEnd, MoldynAdaptiveBitExact) {
  // moldyn's force chain makes boundary pages genuinely multi-writer, so
  // they stay on invalidate+fetch, with the full diff machinery (twins,
  // multi-writer merges) underneath.  Bit-exactness is the contract.
  apps::moldyn::Params p;
  p.num_molecules = 512;
  p.num_steps = 8;
  p.update_interval = 4;
  p.nprocs = 4;
  const auto sys = apps::moldyn::make_system(p);

  for (const api::Backend b :
       {api::Backend::kTmkBase, api::Backend::kTmkOptimized}) {
    api::BackendOptions sopts = apps::moldyn::default_options();
    const auto rs = apps::moldyn::run(b, p, sys, sopts);
    api::BackendOptions aopts = apps::moldyn::default_options();
    aopts.coherence = CoherencePolicy::kAdaptive;
    const auto ra = apps::moldyn::run(b, p, sys, aopts);
    EXPECT_EQ(ra.checksum, rs.checksum) << api::backend_name(b)
                                        << ": adaptive must be bit-exact";
    EXPECT_EQ(ra.tmk.migrations, 0u) << api::backend_name(b);
  }
}

TEST(CoherenceEndToEnd, GhostPromotionFiresOnStableIndirection) {
  // pagerank's CSR structure never changes, so on the optimized backend
  // (compiler-driven Validate) the schedule's indirection pages go stable
  // and must be promoted to a ghost zone after ghost_epochs.
  apps::pagerank::Params p;
  p.num_vertices = 2048;
  p.edges_per_vertex = 4;
  p.num_steps = 8;
  p.nprocs = 4;
  api::BackendOptions opts = apps::pagerank::default_options();
  opts.coherence = CoherencePolicy::kAdaptive;
  const auto r = apps::pagerank::run(api::Backend::kTmkOptimized, p, opts);
  EXPECT_GT(r.tmk.ghost_promotions, 0u);
}

}  // namespace
}  // namespace sdsm::coherence
