// Per-request bump-pointer arena behind the serving hot path.
//
// The inference forward chain (preprocess -> pad -> implicit-GEMM conv ->
// logits) used to heap-allocate every intermediate tensor and autograd node on
// every request. The conv kernels already keep their pad/column-strip scratch
// warm per thread; this file generalizes that idea to *every* transient
// allocation of a request:
//
//   * Arena        — a chain of malloc'd blocks handed out by pointer bump.
//                    Allocation is an add + compare; freeing is a no-op; the
//                    whole request's memory is reclaimed at once by rewinding.
//   * ArenaScope   — RAII frame: binds an arena as the current thread's
//                    scratch source, records a mark, and rewinds to it on
//                    exit. Frames nest (a worker's batch frame around each
//                    image's forward frame), each releasing only its own
//                    allocations.
//   * scratch_alloc / scratch_free — the allocation hook tensor storage and
//                    autograd nodes route through. Inside a scope they bump
//                    the bound arena; outside they fall back to the heap. A
//                    process-wide counter records every heap fallback (and
//                    every arena block growth), so tests can assert that a
//                    warm serving thread performs zero heap allocations.
//
// Contract: memory handed out inside a scope must not outlive that scope's
// rewind — callers copy anything that escapes (the serving path copies
// logits into plain Prediction vectors before its frame closes). An Arena is
// single-threaded by design; the serving path keeps one per thread
// (serve::Replica::serving_arena()), mirroring the per-thread conv scratch.
//
// Reference shape: pixmask's one-arena-per-pipeline reset-per-request
// allocator; ours adds nested frames and the heap-fallback accounting hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blurnet::util {

class Arena {
 public:
  /// Blocks are carved in multiples of `block_bytes` (default 1 MiB —
  /// comfortably a whole small-CNN forward, so steady state is one block).
  static constexpr std::size_t kDefaultBlockBytes = std::size_t(1) << 20;

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (a power of two). Walks the
  /// existing block chain first-fit, so a rewound arena replays the same
  /// allocation sequence onto the same addresses; grows a new block (heap,
  /// counted) only when nothing fits. An oversized request — larger than
  /// block_bytes — gets a dedicated block of exactly its size.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Rewind position for nested frames.
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };
  Mark mark() const { return {current_, offset_}; }
  /// Rewind to a mark, releasing every allocation made after it. Blocks are
  /// kept for reuse — rewinding never touches the heap.
  void rewind(Mark m);
  /// Rewind to the beginning (keeps all blocks).
  void reset() { rewind({0, 0}); }

  /// Blocks currently owned (grows during warm-up, then stays flat).
  std::size_t block_count() const { return blocks_.size(); }
  /// Total bytes across all blocks.
  std::size_t capacity() const;
  /// Bytes handed out since the last reset (including alignment padding).
  std::size_t used() const;
  /// Times this arena had to malloc a new block — the arena's share of the
  /// process-wide scratch_heap_allocations() counter.
  std::int64_t growths() const { return growths_; }

 private:
  struct Block {
    char* data = nullptr;
    std::size_t size = 0;
  };

  void grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t block_bytes_;
  std::size_t current_ = 0;  // block being bumped
  std::size_t offset_ = 0;   // bump position inside blocks_[current_]
  std::int64_t growths_ = 0;
};

/// The arena bound to this thread by the innermost live ArenaScope, or
/// nullptr when scratch allocations should use the heap.
Arena* current_arena();

/// RAII frame on an arena (see file comment). Binding is thread-local; the
/// destructor restores the previous binding and rewinds the arena to the
/// entry mark, so nested frames release only their own allocations.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena* previous_;
  Arena::Mark mark_;
};

/// Allocate `bytes` aligned to `align` from the current thread's arena, or
/// from the heap (counted) when no scope is bound. The returned block carries
/// a hidden header so scratch_free() knows which case it was.
void* scratch_alloc(std::size_t bytes, std::size_t align = 64);

/// Release a scratch_alloc'd block: frees heap blocks, no-ops arena blocks
/// (their memory is reclaimed by the owning scope's rewind). Must run before
/// the owning scope rewinds past the block.
void scratch_free(void* p) noexcept;

/// Process-wide count of scratch-layer heap events: scratch_alloc heap
/// fallbacks plus arena block growths. Flat between two snapshots ⇒ the
/// tensor/node hot path in between was allocation-free.
std::int64_t scratch_heap_allocations();

/// Minimal std allocator over scratch_alloc/scratch_free, used to place
/// autograd node control blocks in the request arena (allocate_shared).
template <typename T>
struct ScratchAllocator {
  using value_type = T;

  ScratchAllocator() noexcept = default;
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(scratch_alloc(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { scratch_free(p); }

  template <typename U>
  bool operator==(const ScratchAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const ScratchAllocator<U>&) const noexcept {
    return false;
  }
};

}  // namespace blurnet::util
