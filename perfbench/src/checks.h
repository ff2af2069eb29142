#pragma once

// Cells and the correctness checks behind ok_ratio.
//
// A cell is one protocol instance at one (n, t) with seed-derived inputs
// and one fault plan. Every check takes the outputs of a call into the
// library and returns whether they are correct; the workloads count an
// item as failed when any of its checks returns false.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "lowerbound/attack.h"
#include "runtime/fault.h"
#include "runtime/process.h"
#include "runtime/serde.h"
#include "runtime/sync_system.h"
#include "statics/analyzer.h"

namespace perfbench {

/// The agreement problem a cell solves, which fixes its validity check.
enum class Family {
  kBroadcast,                // Dolev-Strong: decide the sender's value
  kConsensus,                // phase-king: strong binary consensus
  kInteractiveConsistency,   // EIG: decide the proposal vector
};

struct Cell {
  std::string label;
  Family family{Family::kConsensus};
  ba::SystemParams params;
  ba::ProtocolFactory factory;
  std::vector<ba::Value> proposals;
  /// Broadcast cells: the designated sender.
  ba::ProcessId sender{0};
  /// Fault plan (faults/fault_spec.h grammar) and its compiled adversary.
  std::string fault{"fault-free"};
  ba::Adversary adversary;
  /// Statically derived bounds of the cell's CommSpec.
  ba::statics::StaticBounds bounds;
};

/// Dolev-Strong broadcast from process 0; the sender's value is a
/// seed-derived transaction string of fixed length.
[[nodiscard]] Cell make_ds_cell(std::string label, std::uint32_t n,
                                std::uint32_t t, std::uint64_t seed);
/// Phase-king strong consensus over seed-derived bits.
[[nodiscard]] Cell make_pk_cell(std::string label, std::uint32_t n,
                                std::uint32_t t, std::uint64_t seed);
/// EIG interactive consistency over seed-derived integers.
[[nodiscard]] Cell make_eig_cell(std::string label, std::uint32_t n,
                                 std::uint32_t t, std::uint64_t seed);

/// Compiles `fault` (fault-spec grammar) into the cell's adversary.
void apply_fault(Cell& cell, const std::string& fault,
                 std::uint64_t fault_seed);

/// Exact number of messages correct processes send in a fault-free run of
/// the cell, in closed form.
[[nodiscard]] std::uint64_t fault_free_messages(const Cell& cell);

/// exec: every process decides, decisions agree, the cell's validity
/// holds, and the message count equals fault_free_messages and stays
/// within statics::budget_at at f = 0.
[[nodiscard]] bool check_fault_free_run(const Cell& cell,
                                        const ba::RunResult& run);

/// audit: the lint report is clean and actually replayed the processes.
[[nodiscard]] bool check_lint(const ba::analysis::LintReport& report);

/// audit: a trace decoded and re-encoded reproduces its bytes exactly.
[[nodiscard]] bool check_trace_roundtrip(const ba::Bytes& encoded,
                                         const ba::Bytes& reencoded);

/// audit: a sub-threshold candidate yields a certificate that verifies; a
/// correct protocol yields none and clears the Lemma 1 bound t^2/32.
[[nodiscard]] bool check_attack(bool expect_violation,
                                const ba::lowerbound::AttackReport& report,
                                bool certificate_verified);

/// campaign: reference rows that the merged results fail to reproduce.
/// A row passes when its line is byte-identical to the serial reference's
/// line at the same index and authenticates with decode_row; a results
/// file with extra lines, or without its final newline, fails that many
/// more rows.
[[nodiscard]] std::uint64_t failed_campaign_rows(const std::string& results,
                                                 const std::string& reference);

/// Messages, rounds and decisions of a run, as text: the part of an
/// outcome a traced op must reproduce exactly.
[[nodiscard]] std::string run_fingerprint(const ba::RunResult& run);

}  // namespace perfbench
