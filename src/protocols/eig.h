#pragma once

// Exponential Information Gathering (EIG) interactive consistency
// [78, 55, 82]: unauthenticated, n > 3t, t + 1 rounds, messages of size
// O(n^t) — the classic proof-of-solvability construction, practical for small
// t only (the library's phase-king-based protocols cover larger systems).
//
// Every process decides the same vector of n values; the component of every
// correct process equals its proposal (IC-Validity).
//
// Representation: the information-gathering tree is a flat, level-indexed
// arena. A level-L node is addressed by its dense path id
// id(p1..pL) = ((p1·n + p2)·n + p3)·… (see `eig_paths` below), values are
// interned once and stored as 32-bit ids in one contiguous buffer per level,
// and the final level (the leaves, O(n^{t+1}) of them) is never materialized:
// leaf reports fold directly into per-parent vote tallies, so the
// resolve/decide pass is a linear sweep per level instead of pointer-chasing
// a map of heap-allocated path vectors. Wire payloads are unchanged — the
// arena converts to the exact `Value` report encoding of the seed
// implementation at the serde boundary, proven byte-identical by
// tests/protocols/eig_arena_golden_test.cpp against the retained reference
// implementation (`eig_reference_*` below).

#include <cstdint>
#include <vector>

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

/// Interactive consistency over arbitrary `Value` proposals. Missing or
/// malformed reports resolve to Value::null().
ProtocolFactory eig_interactive_consistency();

/// Strong consensus derived from EIG: decide the most frequent component of
/// the IC vector (ties broken by value order).
ProtocolFactory eig_strong_consensus();

/// The seed nested-heap-value implementation (std::map over label vectors),
/// kept as the behavioural oracle for the arena encoding: decisions and
/// traces must stay byte-identical (tests/protocols/eig_arena_golden_test).
/// The arena factories above also fall back to it when the dense id space
/// for (n, t) exceeds `eig_paths::layout_fits`.
ProtocolFactory eig_reference_interactive_consistency();
ProtocolFactory eig_reference_strong_consensus();

inline Round eig_rounds(const SystemParams& p) { return p.t + 1; }

/// Static communication declarations: (t+1) n (n-1) messages whose level-r
/// report payloads are superpolynomial (O(n^r) tree entries).
statics::CommSpec eig_ic_comm_spec();
statics::CommSpec eig_strong_comm_spec();

/// Dense path-id arithmetic for the arena encoding. A label (p1..pL) with
/// digits in [0, n) — repeats allowed: Byzantine reports may carry them and
/// honest processes relay stored labels verbatim — maps to the integer
/// obtained by reading the digits in base n. Ascending id order within a
/// level is exactly the lexicographic label order the seed's std::map
/// iterated in, which is what keeps arena payloads byte-identical.
namespace eig_paths {

/// id of the empty label (the tree root).
inline constexpr std::uint64_t kRootId = 0;

/// id(α·j) = id(α)·n + j. Pure arithmetic — callers guard overflow via
/// `level_size`/`layout_fits` before trusting the result.
inline constexpr std::uint64_t child_id(std::uint64_t parent, std::uint32_t n,
                                        std::uint32_t j) {
  return parent * n + j;
}

/// Number of dense slots at `level`, i.e. n^level; saturates to
/// UINT64_MAX on overflow.
std::uint64_t level_size(std::uint32_t n, std::uint32_t level);

/// Recovers the digits (p1..pL) of a level-L id, most significant first.
/// `out` is resized to `level`.
void decode_path(std::uint64_t id, std::uint32_t n, std::uint32_t level,
                 std::vector<ProcessId>& out);

/// True iff digit `p` occurs in the level-L label with dense id `id`.
bool path_contains(std::uint64_t id, std::uint32_t n, std::uint32_t level,
                   ProcessId p);

/// True iff the arena encoding is willing to allocate dense levels for
/// (n, t): parent level n^t and leaf level n^{t+1} must stay within fixed
/// slot budgets (the factories fall back to the reference implementation
/// otherwise, preserving behaviour for pathological parameter corners).
bool layout_fits(std::uint32_t n, std::uint32_t t);

}  // namespace eig_paths

}  // namespace ba::protocols
