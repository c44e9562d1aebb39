// Tests for the stat registry and the latency accumulator.

#include <gtest/gtest.h>

#include "src/locus/system.h"
#include "src/sim/stats.h"

namespace locus {
namespace {

TEST(StatRegistry, AddGetReset) {
  StatRegistry stats;
  EXPECT_EQ(stats.Get("x"), 0);
  stats.Add("x");
  stats.Add("x", 4);
  EXPECT_EQ(stats.Get("x"), 5);
  stats.Reset();
  EXPECT_EQ(stats.Get("x"), 0);
}

// The reconciliation counters are interned at kernel start, so they appear in
// the counter export (with zero values) even before any fault occurs — dash
// boards and the bench JSON can rely on the keys being present.
TEST(StatRegistry, SurfacesReconciliationCounters) {
  System system(2);
  auto counters = system.stats().counters();
  for (const char* key : {"recon.catchup_pages", "recon.stale_reads_blocked",
                          "recon.reintegrations", "recon.stale_marks",
                          "recon.duplicate_propagations_dropped",
                          "recon.gap_quarantines"}) {
    ASSERT_TRUE(counters.count(key)) << key;
    EXPECT_EQ(counters.at(key), 0) << key;
  }
}

// The formation counters (src/form) are interned when each site's queue is
// constructed — formation on or off — so the bench JSON and dashboards can
// rely on every form.* key being present, reading zero on a formation-off
// run instead of missing.
TEST(StatRegistry, SurfacesFormationCounters) {
  System system(2);
  auto counters = system.stats().counters();
  for (const char* key :
       {"form.enqueued", "form.batches", "form.batch_messages", "form.batch_bytes",
        "form.flushes_size", "form.flushes_deadline"}) {
    ASSERT_TRUE(counters.count(key)) << key;
    EXPECT_EQ(counters.at(key), 0) << key;
  }
}

// The serializability certifier (src/serial) interns its counters at System
// construction — certifier on or off — so serial.* keys are always present
// in the export, reading zero on an uncertified run instead of missing.
TEST(StatRegistry, SurfacesSerialCounters) {
  System system(2);
  auto counters = system.stats().counters();
  for (const char* key :
       {"serial.txns_certified", "serial.edges", "serial.cycles",
        "serial.checks", "serial.violations"}) {
    ASSERT_TRUE(counters.count(key)) << key;
    EXPECT_EQ(counters.at(key), 0) << key;
  }
}

// The protocol auditor interns its counters at System construction even when
// disabled, so audit.checks / audit.violations are always present in the
// export — a run with the auditor off reads as zero, not as a missing key.
TEST(StatRegistry, SurfacesAuditCounters) {
  System system(1);
  auto counters = system.stats().counters();
  for (const char* key : {"audit.checks", "audit.violations"}) {
    ASSERT_TRUE(counters.count(key)) << key;
    EXPECT_EQ(counters.at(key), 0) << key;
  }
  SystemOptions options;
  options.audit = true;
  System audited(1, options);
  audited.Spawn(0, "w", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/f"), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "audited"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  audited.Run();
  EXPECT_GT(audited.stats().Get("audit.checks"), 0);
  EXPECT_EQ(audited.stats().Get("audit.violations"), 0);
}

TEST(LatencyStat, TracksMinMaxMean) {
  LatencyStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_DOUBLE_EQ(stat.MeanMs(), 0.0);
  stat.Add(Milliseconds(10));
  stat.Add(Milliseconds(20));
  stat.Add(Milliseconds(30));
  EXPECT_EQ(stat.count(), 3);
  EXPECT_EQ(stat.min(), Milliseconds(10));
  EXPECT_EQ(stat.max(), Milliseconds(30));
  EXPECT_DOUBLE_EQ(stat.MeanMs(), 20.0);
}

}  // namespace
}  // namespace locus
