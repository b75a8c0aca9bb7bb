// Tests for the adaptive coherence engine (sdsm::coherence): heat-counter
// epoch decay, the deterministic write census, policy classification
// (replicate after a sustained streak, migrate with hysteresis — an
// epoch-alternating writer pair must NOT ping-pong ownership — and silent
// demotion), the extended write-notice codec (static encoding stays
// byte-identical to the historical wire format), static-mode inertness
// (zero adaptive counters, traffic identical to the baseline), and the
// adaptive end-to-end contract: bit-exact checksums with strictly fewer
// messages on the replicate-friendly workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/api/api.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/coherence/coherence.hpp"
#include "src/coherence/heat.hpp"
#include "src/coherence/policy.hpp"
#include "src/common/buffer.hpp"
#include "src/common/stats.hpp"
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

// --- HeatTracker -----------------------------------------------------------

TEST(HeatTracker, HalvingDecayPerEpoch) {
  EXPECT_EQ(HeatTracker::decayed(0x8000, 0), 0x8000);
  EXPECT_EQ(HeatTracker::decayed(0x8000, 1), 0x4000);
  EXPECT_EQ(HeatTracker::decayed(0x8000, 15), 1);
  EXPECT_EQ(HeatTracker::decayed(0x8000, 16), 0);
  EXPECT_EQ(HeatTracker::decayed(0xffff, 1000), 0);  // no UB on huge gaps
}

TEST(HeatTracker, AdvanceIsLazyAndBumpSaturates) {
  std::uint16_t read = 100, write = 40;
  std::uint32_t epoch = 2;
  HeatTracker::advance(read, write, epoch, 2);  // same epoch: no-op
  EXPECT_EQ(read, 100);
  EXPECT_EQ(write, 40);

  HeatTracker::bump_read(read, write, epoch, 4);  // 2 epochs idle: /4
  EXPECT_EQ(read, 26);                            // 100 >> 2, then +1
  EXPECT_EQ(write, 10);                           // decayed, not bumped
  EXPECT_EQ(epoch, 4u);

  read = HeatTracker::kMax;
  HeatTracker::bump_read(read, write, epoch, 4);
  EXPECT_EQ(read, HeatTracker::kMax);  // saturates, never wraps
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
  PolicyEngine pe(0, CoherenceTuning{});
  pe.fold_write(7, 1, 1000);
  pe.tick();  // streak 1 < repl_epochs: still unclassified
  EXPECT_EQ(pe.page_class(7), PageClass::kNone);
  EXPECT_FALSE(pe.should_inline(7));

  pe.fold_write(7, 1, 1000);
  const auto tr = pe.tick();  // streak 2: replicate
  EXPECT_EQ(pe.page_class(7), PageClass::kReplicated);
  EXPECT_EQ(pe.owner(7), 1u);
  EXPECT_TRUE(pe.should_inline(7));
  EXPECT_EQ(tr.migrations, 0u);  // replication is not a migration
}

TEST(PolicyEngine, ReplicatedPageStaysThroughIdleEpochsThenDemotes) {
  PolicyEngine pe(0, CoherenceTuning{});
  pe.fold_write(7, 1, 4);
  pe.tick();
  pe.fold_write(7, 1, 4);
  pe.tick();
  EXPECT_EQ(pe.page_class(7), PageClass::kReplicated);
  pe.tick();  // idle epoch: score (6) still nonzero after decay — sticky
  EXPECT_EQ(pe.page_class(7), PageClass::kReplicated);
  pe.tick();  // score decays to zero: silent demotion
  EXPECT_EQ(pe.page_class(7), PageClass::kNone);
  EXPECT_EQ(pe.owner(7), PolicyEngine::kInvalidNode);
}

TEST(PolicyEngine, AlternatingWritersDoNotPingPongOwnership) {
  // Writers A=1 and B=2 alternate epochs on the same page.  With halving
  // decay an alternating challenger peaks below the 3x hysteresis ratio,
  // so ownership must settle after the first assignment and never flap.
  PolicyEngine pe(0, CoherenceTuning{});
  std::uint32_t total_migrations = 0;
  pe.fold_write(7, 1, 1000);
  total_migrations += pe.tick().migrations;  // sole writer so far: none
  for (int e = 1; e <= 10; ++e) {
    pe.fold_write(7, e % 2 == 0 ? 1 : 2, 1000);
    total_migrations += pe.tick().migrations;
  }
  EXPECT_EQ(pe.page_class(7), PageClass::kMigrated);
  EXPECT_EQ(total_migrations, 1u);  // the initial assignment, then stable
}

TEST(PolicyEngine, SustainedHandOffOvercomesHysteresis) {
  // A dominates while it writes; once A stops and B keeps writing, B's
  // steady score must overtake A's decaying one within a few epochs.
  PolicyEngine pe(2, CoherenceTuning{});
  std::uint32_t total_migrations = 0;
  for (int e = 0; e < 3; ++e) {
    pe.fold_write(7, 1, 4000);
    pe.fold_write(7, 2, 2000);
    total_migrations += pe.tick().migrations;
  }
  EXPECT_EQ(pe.page_class(7), PageClass::kMigrated);
  EXPECT_EQ(pe.owner(7), 1u);
  EXPECT_EQ(total_migrations, 1u);

  int epochs_to_flip = 0;
  std::vector<PageId> newly_owned;
  while (pe.owner(7) != 2u) {
    ASSERT_LT(epochs_to_flip, 5) << "hand-off never cleared hysteresis";
    pe.fold_write(7, 2, 2000);
    const auto tr = pe.tick();
    total_migrations += tr.migrations;
    newly_owned.insert(newly_owned.end(), tr.newly_owned.begin(),
                       tr.newly_owned.end());
    ++epochs_to_flip;
  }
  EXPECT_EQ(total_migrations, 2u);
  // self_ == 2 took the page over: exactly one ownership-transfer report.
  ASSERT_EQ(newly_owned.size(), 1u);
  EXPECT_EQ(newly_owned[0], 7u);
}

TEST(PolicyEngine, ResetClearsEverything) {
  PolicyEngine pe(0, CoherenceTuning{});
  pe.fold_write(7, 1, 1000);
  pe.tick();
  pe.fold_write(7, 1, 1000);
  pe.tick();
  ASSERT_EQ(pe.page_class(7), PageClass::kReplicated);
  pe.reset();
  EXPECT_EQ(pe.epoch(), 0u);
  EXPECT_EQ(pe.page_class(7), PageClass::kNone);
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

TEST(CoherenceEndToEnd, StaticModeIsInertAndAdaptiveIsBitExact) {
  // pagerank: block-partitioned rank pages have a single sustained writer
  // each, the replicate-friendly shape.  The adaptive run must reproduce
  // the static checksum BIT-exactly (same arithmetic, different transport
  // mechanism) while eliminating fetch round trips.
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
    EXPECT_GT(ra.tmk.replications, 0u) << api::backend_name(b);
    EXPECT_LT(ra.messages, rs.messages)
        << api::backend_name(b)
        << ": replication must eliminate fetch round trips";
  }
}

TEST(CoherenceEndToEnd, MoldynAdaptiveBitExactWithMigrations) {
  // moldyn's force chain makes boundary pages genuinely multi-writer:
  // the migrate path with the full diff machinery (twins, inline diffs,
  // eager apply) underneath.  Bit-exactness is the contract; decisions
  // must actually fire.
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
    EXPECT_GT(ra.tmk.replications + ra.tmk.migrations, 0u)
        << api::backend_name(b);
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
