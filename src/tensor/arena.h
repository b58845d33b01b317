// Workspace: an arena of reusable Tensor slots with bump-style allocation
// and per-batch mark/rewind. The zero-allocation substrate for the nn/ hot
// path: a training step marks, draws its activations/gradients via get(),
// and rewinds — after the first (warmup) pass every get() is a capacity
// reuse, so steady-state training performs no tensor heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace adafl::tensor {

/// Bump allocator over Tensor slots. get(shape) hands out the next slot,
/// resized (and zero-filled, matching Tensor(shape) semantics) to `shape`;
/// mark()/rewind() recycle slots stack-style between batches. Slots are
/// heap-boxed so returned Tensor& stay valid as the slot table grows.
///
/// Determinism contract: a fixed call sequence touches slots in a fixed
/// order, so reuse never changes values — every get() result is zero-filled
/// exactly like a freshly constructed Tensor.
///
/// Not thread-safe: one thread at a time per Workspace. A model's workspace
/// may be used from inside a parallel region — client-parallel training and
/// the evaluator's lanes each run a model of their own on one lane — but
/// never from inside that model's own layer bodies, whose parallel regions
/// write pre-sized outputs.
class Workspace {
 public:
  struct Stats {
    std::uint64_t requests = 0;     ///< total get() calls
    std::uint64_t allocations = 0;  ///< get() calls that grew a slot's buffer
    std::size_t high_water_slots = 0;  ///< max slots live at once
  };

  /// Opaque cursor position; treat as a token for rewind().
  using Mark = std::size_t;

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Next slot, shaped and zero-filled. The reference stays valid until
  /// clear(); rewinding merely makes the slot eligible for reuse.
  Tensor& get(const Shape& shape);

  /// Current cursor; pass to rewind() to release every slot taken since.
  Mark mark() const { return cursor_; }

  /// Releases all slots taken after `m` (their storage stays reserved).
  void rewind(Mark m);

  /// Equivalent to rewind(mark-of-empty): all slots reusable, storage kept.
  void reset() { cursor_ = 0; }

  /// Drops all slots and their storage.
  void clear();

  const Stats& stats() const { return stats_; }
  std::size_t slot_count() const { return slots_.size(); }

  /// Total floats of storage reserved across all slots.
  std::size_t floats_reserved() const;

 private:
  std::vector<std::unique_ptr<Tensor>> slots_;
  std::size_t cursor_ = 0;
  Stats stats_;
};

}  // namespace adafl::tensor
