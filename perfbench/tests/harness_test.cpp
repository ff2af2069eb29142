// Tests of the benchmark harness itself, so that a number cannot be wrong
// without a test failing: the percentile rule, host-speed scaling, span
// self-time arithmetic, per-workload RSS isolation, and each correctness
// check behind ok_ratio failing on a corrupted output.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "checks.h"
#include "engine/backend.h"
#include "harness.h"
#include "lowerbound/attack.h"
#include "lowerbound/certificate.h"
#include "lowerbound/sweep.h"
#include "protocols/phase_king.h"
#include "runtime/trace_io.h"
#include "service/campaign.h"
#include "service/ndjson.h"
#include "service/runner.h"

namespace perfbench {
namespace {

// --- percentile rule -------------------------------------------------------

TEST(Percentile, P90NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);

  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  v.pop_back();
  EXPECT_THROW((void)percentile(v, 0.9), std::runtime_error);
}

TEST(Percentile, MedianIsNearestRank) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_THROW((void)median({}), std::runtime_error);
}

// --- host speed ------------------------------------------------------------

TEST(HostSpeed, ScalesOnlyTheTimeCoveredByComputing) {
  const double busy = 2 * kProbeRestMs;  // a host twice as slow as at rest
  EXPECT_DOUBLE_EQ(at_rest_ms(60, 60, busy), 30);
  EXPECT_DOUBLE_EQ(at_rest_ms(52, 2, busy), 51);  // 50 ms spent waiting
  EXPECT_DOUBLE_EQ(at_rest_ms(60, 60, kProbeRestMs), 60);
  EXPECT_DOUBLE_EQ(at_rest_ms(10, 13, busy), 5);  // workers ran in parallel
  EXPECT_THROW((void)at_rest_ms(10, 5, 0), std::runtime_error);
}

TEST(HostSpeed, ProbeTakesTime) {
  HostProbe probe;
  EXPECT_GT(probe.time_ms(), 0.0);
  EXPECT_GT(probe.time_ms(), 0.0);  // the arena is reused run after run
}

TEST(OkRatio, DropsBelowOneOnAnyFailure) {
  EXPECT_EQ(ok_ratio(300, 0), 1.0);
  EXPECT_LT(ok_ratio(300, 1), 1.0);
  EXPECT_EQ(ok_ratio(0, 0), 0.0);
}

// --- span self time --------------------------------------------------------

TEST(Spans, SelfTimeSubtractsTheUnionOfChildIntervals) {
  SpanLog log;
  const std::size_t root = log.open("root", "", 0, 1000);
  log.fold("a", "", 0, 1010, 20, 1);  // [10, 30)
  log.fold("b", "", 0, 1020, 30, 2);  // [20, 50): overlaps a
  const std::size_t c = log.open("c", "", 0, 1060);
  log.close(c, 1070);                 // [60, 70)
  log.close(root, 1100);
  log.fold("d", "", 0, 1090, 30, 1);  // top level: not a child of root
  EXPECT_EQ(log.self_ns(root), 100 - 40 - 10);
  EXPECT_EQ(log.self_ns(1), 20);  // a leaf's self time is its duration

  const SpanSeries b = span_series(log, "b", "");
  ASSERT_EQ(b.total_ms.size(), 1u);
  EXPECT_EQ(b.calls[0], 2.0);
  EXPECT_DOUBLE_EQ(b.total_ms[0], 30e-6);
}

TEST(Spans, ChildSpillingPastItsParentIsClipped) {
  SpanLog log;
  const std::size_t root = log.open("root", "", 0, 0);
  log.fold("late", "", 0, 80, 50, 1);  // [80, 130)
  log.close(root, 100);
  EXPECT_EQ(log.self_ns(root), 80);
}

TEST(Spans, ClosingOutOfOrderIsRefused) {
  SpanLog log;
  const std::size_t outer = log.open("outer", "", 0);
  (void)log.open("inner", "", 0);
  EXPECT_THROW(log.close(outer), std::logic_error);
}

TEST(Spans, NestedScopesRecordParents) {
  SpanLog log;
  {
    SpanScope outer(&log, "outer", "", 7);
    SpanScope inner(&log, "inner", "x", 7);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].op, 7u);
  EXPECT_LE(log.self_ns(0), log.spans()[0].duration_ns());
  SpanScope untraced(nullptr, "ignored", "", 0);  // no log: no span
  EXPECT_EQ(log.spans().size(), 2u);
}

// --- per-workload RSS isolation -------------------------------------------

TEST(Isolation, AllocationShowsOnlyInItsOwnWorkload) {
  constexpr std::size_t kBallast = 96u << 20;
  const IsolatedResult big = run_isolated([] {
    std::vector<char> ballast(kBallast);
    std::memset(ballast.data(), 1, ballast.size());  // touch every page
    return std::string(1, ballast[kBallast / 2]);
  });
  const IsolatedResult small = run_isolated([] { return std::string("ok"); });
  ASSERT_EQ(big.exit_code, 0);
  ASSERT_EQ(small.exit_code, 0);
  EXPECT_EQ(big.output, std::string(1, '\1'));
  EXPECT_GE(big.peak_rss_mb, 96.0);
  EXPECT_LT(small.peak_rss_mb, 48.0);  // not the previous child's high-water
}

TEST(Isolation, FailingBodyReportsNonzeroExit) {
  const IsolatedResult r = run_isolated([]() -> std::string {
    throw std::runtime_error("boom");
  });
  EXPECT_NE(r.exit_code, 0);
  EXPECT_TRUE(r.output.empty());
}

// --- checks behind ok_ratio -----------------------------------------------

ba::RunResult run_cell(const Cell& cell, bool trace) {
  ba::RunOptions options;
  options.record_trace = trace;
  return ba::engine::default_backend().run(cell.params, cell.factory,
                                           cell.proposals, cell.adversary,
                                           options);
}

TEST(ExecCheck, PassesOnEveryFamilyAndCountsExactly) {
  for (const Cell& cell : {make_ds_cell("ds", 16, 4, 1),
                           make_pk_cell("pk", 13, 4, 2),
                           make_eig_cell("eig", 7, 2, 3)}) {
    const ba::RunResult run = run_cell(cell, false);
    EXPECT_EQ(run.messages_sent_by_correct, fault_free_messages(cell))
        << cell.label;
    EXPECT_TRUE(check_fault_free_run(cell, run)) << cell.label;
  }
}

TEST(ExecCheck, PhaseKingCountCoversBackedFirstPhase) {
  Cell cell = make_pk_cell("pk", 13, 4, 2);
  const ba::RunResult balanced = run_cell(cell, false);
  cell.proposals.assign(13, ba::Value::bit(1));  // n - t agree: phase 1 backs
  const ba::RunResult unanimous = run_cell(cell, false);
  EXPECT_EQ(unanimous.messages_sent_by_correct, fault_free_messages(cell));
  EXPECT_GT(unanimous.messages_sent_by_correct,
            balanced.messages_sent_by_correct);
  EXPECT_TRUE(check_fault_free_run(cell, unanimous));
}

TEST(ExecCheck, FailsOnAnAlteredDecision) {
  for (const Cell& cell : {make_ds_cell("ds", 16, 4, 1),
                           make_pk_cell("pk", 13, 4, 2),
                           make_eig_cell("eig", 7, 2, 3)}) {
    ba::RunResult run = run_cell(cell, false);
    ba::RunResult altered = run;
    altered.decisions.back() = ba::Value{std::string("forged")};
    EXPECT_FALSE(check_fault_free_run(cell, altered)) << cell.label;
    altered = run;
    altered.decisions.front().reset();  // a process that never decided
    EXPECT_FALSE(check_fault_free_run(cell, altered)) << cell.label;
    altered = run;
    ++altered.messages_sent_by_correct;
    EXPECT_FALSE(check_fault_free_run(cell, altered)) << cell.label;
  }
}

TEST(AuditCheck, LintAgainstTheWrongProtocolFails) {
  Cell cell = make_ds_cell("ds", 16, 4, 5);
  apply_fault(cell, "isolate:2", 9);
  const ba::RunResult run = run_cell(cell, true);
  EXPECT_TRUE(check_lint(ba::analysis::lint_execution(run.trace, cell.factory)));
  EXPECT_FALSE(check_lint(ba::analysis::lint_execution(
      run.trace, ba::protocols::phase_king_consensus())));
}

TEST(AuditCheck, ReencodedTraceMustMatchByteForByte) {
  const Cell cell = make_eig_cell("eig", 7, 2, 4);
  const ba::RunResult run = run_cell(cell, true);
  const ba::Bytes encoded = ba::encode_trace(run.trace);
  const auto decoded = ba::decode_trace(encoded);
  ASSERT_TRUE(decoded.has_value());
  ba::Bytes reencoded = ba::encode_trace(*decoded);
  EXPECT_TRUE(check_trace_roundtrip(encoded, reencoded));
  reencoded[reencoded.size() / 2] ^= 0x01;
  EXPECT_FALSE(check_trace_roundtrip(encoded, reencoded));
}

TEST(AuditCheck, AttackOutcomesAreChecked) {
  const ba::SystemParams params{12, 11};
  for (const auto& entry : ba::lowerbound::standard_sweep_entries()) {
    const ba::ProtocolFactory factory = entry.make(params);
    const auto report = ba::lowerbound::attack_weak_consensus(params, factory);
    const bool expect_violation = entry.protocol_name != "dolev-strong-weak";
    const bool verified =
        report.certificate &&
        ba::lowerbound::verify_certificate(*report.certificate, factory).ok;
    EXPECT_TRUE(check_attack(expect_violation, report, verified))
        << entry.protocol_name;
    if (expect_violation) {
      EXPECT_FALSE(check_attack(true, report, /*certificate_verified=*/false))
          << entry.protocol_name;
    } else {
      auto below = report;  // a correct protocol that fails to clear t^2/32
      below.max_message_complexity = report.bound - 1;
      EXPECT_FALSE(check_attack(false, below, verified));
    }
    if (report.certificate) {
      // A certificate whose recorded decision was altered must not verify.
      auto forged = *report.certificate;
      auto& decision = forged.execution.procs[forged.witness_a].decision;
      decision = ba::Value{std::string("forged")};
      EXPECT_FALSE(ba::lowerbound::verify_certificate(forged, factory).ok);
    }
  }
}

TEST(CampaignCheck, OneFlippedRowByteFailsExactlyOneRow) {
  ba::service::CampaignSpec spec;
  spec.protocols = {"phase-king", "floodset"};
  spec.grid = {{4, 1}};
  spec.faults = {"fault-free", "crash:1"};
  spec.seeds = 3;
  const std::string path =
      ::testing::TempDir() + "perfbench_campaign_check.ndjson";
  ba::service::run_campaign_serial(spec, path);
  std::string reference;
  for (const std::string& line : ba::service::read_ndjson_lines(path)) {
    reference += line + "\n";
  }
  ASSERT_EQ(failed_campaign_rows(reference, reference), 0u);

  std::string flipped = reference;
  flipped[flipped.find("\"messages\"") + 12] ^= 0x01;
  EXPECT_EQ(failed_campaign_rows(flipped, reference), 1u);

  const std::string truncated = reference.substr(0, reference.size() - 1);
  EXPECT_EQ(failed_campaign_rows(truncated, reference), 1u);
  EXPECT_EQ(failed_campaign_rows("", reference), spec.task_count());
}

}  // namespace
}  // namespace perfbench
