#pragma once

/// \file large_block_allocator.h
/// \brief A std::allocator stand-in that maps large blocks straight from
/// the OS, for big short-lived buffers such as a Fit's signature matrix.
///
/// glibc's malloc serves a request from any free heap chunk that fits
/// before it considers mmap, and it raises its mmap threshold to the size
/// of each mapped block it frees (up to 32 MB). A buffer of a few MB or
/// more therefore lands in the heap whenever an earlier free left a large
/// enough hole, and otherwise gets its own mapping. Which one happens
/// depends on the process's allocation history. The two outcomes leave
/// different heaps behind: a matrix that takes the hole pushes the index
/// built next onto fresh heap, and that memory stays resident after the
/// Fit. A process that fits repeatedly then ends at a peak footprint that
/// varies by ~30 MB from run to run at tens of MB per matrix, and grows
/// by a few MB at 10,000 items x 64 hashes (5 MB), where the holes also
/// take the process's other growing buffers. Blocks of at least
/// kMinMappedBytes always get their own mapping here. They are unmapped
/// on deallocation. Smaller blocks go through operator new as before.
///
/// The price is the one glibc's own mapping pays: the block's pages are
/// faulted in fresh on every allocation, where a block that took a heap
/// hole reused resident pages. And since glibc never sees these blocks
/// freed, they no longer raise its mmap threshold: a process that frees
/// no other mapped block keeps mapping (and faulting in) blocks of a few
/// hundred KB that a raised threshold would have served from the heap.

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace lshclust {

template <typename T>
class LargeBlockAllocator {
 public:
  using value_type = T;

  /// 1 MB: a block this large is one signature matrix of ~2,000 items or
  /// more, allocated once per Fit, so its mapping costs little next to
  /// the work that fills it.
  static constexpr size_t kMinMappedBytes = size_t{1} << 20;

  LargeBlockAllocator() = default;
  template <typename U>
  LargeBlockAllocator(const LargeBlockAllocator<U>&) noexcept {}

  T* allocate(size_t count) {
    const size_t bytes = count * sizeof(T);
    if (bytes < kMinMappedBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) throw std::bad_alloc();
    // A fresh mapping is zero-filled page by page on first touch; huge
    // pages, where the host grants them, cut 40 MB of such faults from
    // ~12 ms to ~5 ms on a 4-thread signing pass. Only a hint: a host
    // without them maps 4 KB pages as before.
    madvise(block, bytes, MADV_HUGEPAGE);
    return static_cast<T*>(block);
  }

  void deallocate(T* block, size_t count) noexcept {
    const size_t bytes = count * sizeof(T);
    if (bytes < kMinMappedBytes) {
      ::operator delete(block);
    } else {
      munmap(block, bytes);
    }
  }

  template <typename U>
  bool operator==(const LargeBlockAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace lshclust
