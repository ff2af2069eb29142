// The sweep's fault axis: message-vs-fault curves per grid point, on both
// execution substrates, plus the byte-identity contract for legacy (axis-
// less) sweeps. The curves are the paper's point made measurable: the
// static bound stays Omega(t^2) at every actual-fault count f — observed
// cost never exceeds it, however few processes actually misbehave.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/ba.h"

namespace ba::lowerbound {
namespace {

SweepOptions axis_options(const char* kind) {
  SweepOptions options;
  options.fault_axis = faults::FaultSpec{};
  options.fault_axis->kind = *faults::find_fault_kind(kind);
  return options;
}

TEST(FaultAxis, ChartsOnePointPerFOnTheLockstepBackend) {
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), grid, axis_options("isolate"));
  EXPECT_EQ(result.fault_axis, "isolate:0");
  ASSERT_EQ(result.rows.size(), 4u);
  for (const SweepRow& row : result.rows) {
    // One curve point per f in 0..t, in order.
    ASSERT_EQ(row.fault_curve.size(), row.params.t + 1u) << row.protocol_name;
    for (std::uint32_t f = 0; f <= row.params.t; ++f) {
      const FaultCurvePoint& point = row.fault_curve[f];
      EXPECT_EQ(point.f, f);
      // The acceptance criterion: observed <= static bound at EVERY f.
      if (point.static_bound_f) {
        EXPECT_LE(point.messages, *point.static_bound_f)
            << row.protocol_name << " f=" << f;
      }
    }
    // The f = t bound equals the row's worst-case static bound (no
    // registered CommSpec weakens with f).
    if (row.static_bound) {
      EXPECT_EQ(row.fault_curve.back().static_bound_f, row.static_bound)
          << row.protocol_name;
    }
  }
}

TEST(FaultAxis, HoldsOnTheSimBackendToo) {
  SweepOptions options = axis_options("crash");
  options.attack.backend = engine::make_backend("sim:sync,1");
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), grid, options);
  for (const SweepRow& row : result.rows) {
    ASSERT_EQ(row.fault_curve.size(), row.params.t + 1u) << row.protocol_name;
    for (const FaultCurvePoint& point : row.fault_curve) {
      if (point.static_bound_f) {
        EXPECT_LE(point.messages, *point.static_bound_f)
            << row.protocol_name << " f=" << point.f;
      }
    }
  }
}

TEST(FaultAxis, CurveIsDeterministicAcrossWorkerCounts) {
  const std::vector<SystemParams> grid = {{12, 11}};
  SweepOptions serial = axis_options("isolate");
  SweepOptions pooled = axis_options("isolate");
  pooled.jobs = 2;
  const SweepResult a =
      run_attack_sweep(standard_sweep_entries(), grid, serial);
  const SweepResult b =
      run_attack_sweep(standard_sweep_entries(), grid, pooled);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(encode_sweep_row_ndjson(a.rows[i]),
              encode_sweep_row_ndjson(b.rows[i]));
  }
}

TEST(FaultAxis, NonSweepableKindsAreRejected) {
  const std::vector<SystemParams> grid = {{12, 11}};
  try {
    (void)run_attack_sweep(standard_sweep_entries(), grid,
                           axis_options("fault-free"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "sweep fault axis 'fault-free': want a sweepable fault kind "
                 "(crash mute isolate silent-byz noise-byz)");
  }
  EXPECT_THROW((void)run_attack_sweep(standard_sweep_entries(), grid,
                                      axis_options("random-omissions")),
               std::runtime_error);
}

TEST(FaultAxis, LegacySweepRowsStayByteIdentical) {
  // Golden NDJSON captured from the pre-fault-axis sweep binary
  // (`ba_cli sweep --jobs 1 --grid 12:11 --out`): an axis-less sweep must
  // reproduce these bytes exactly — no fault_curve field, same field order.
  const std::vector<std::string> golden = {
      R"({"protocol":"silent-default","n":12,"t":11,"messages":0,"bound":3,"static_bound":0,"violation":true,"kind":"WeakValidity","certificate_verified":true,"certificate_bytes":1200})",
      R"({"protocol":"leader-beacon","n":12,"t":11,"messages":11,"bound":3,"static_bound":11,"violation":true,"kind":"Agreement","certificate_verified":true,"certificate_bytes":3118})",
      R"({"protocol":"gossip-ring-2","n":12,"t":11,"messages":72,"bound":3,"static_bound":72,"violation":true,"kind":"Agreement","certificate_verified":true,"certificate_bytes":11756})",
      R"({"protocol":"dolev-strong-weak","n":12,"t":11,"messages":132,"bound":3,"static_bound":275,"violation":false,"kind":"","certificate_verified":false,"certificate_bytes":0})",
  };
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), grid, SweepOptions{});
  ASSERT_EQ(result.rows.size(), golden.size());
  EXPECT_TRUE(result.fault_axis.empty());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(encode_sweep_row_ndjson(result.rows[i]), golden[i]);
  }
}

TEST(FaultAxis, NdjsonCarriesTheCurveOnlyWhenSwept) {
  SweepRow row;
  row.protocol_name = "x";
  row.params = {4, 1};
  const std::string bare = encode_sweep_row_ndjson(row);
  EXPECT_EQ(bare.find("fault_curve"), std::string::npos);

  row.fault_curve.push_back({0, 5, 7, true});
  row.fault_curve.push_back({1, 6, std::nullopt, false});
  EXPECT_EQ(
      encode_sweep_row_ndjson(row).substr(bare.size() - 1),
      R"(,"fault_curve":[{"f":0,"messages":5,"static_bound_f":7,"agree":true},)"
      R"({"f":1,"messages":6,"static_bound_f":null,"agree":false}]})");
}

}  // namespace
}  // namespace ba::lowerbound
