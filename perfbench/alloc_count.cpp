// Replacement global allocation functions that count calls and bytes. Every
// form of operator new funnels into count_and_allocate(); the deallocation
// forms only free. Aligned forms use std::aligned_alloc, so each delete form
// frees with std::free.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {

perfbench::AllocTally g_tally;

void* count_and_allocate(std::size_t size, std::size_t alignment) {
  ++g_tally.count;
  g_tally.bytes += size;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc needs the size to be a multiple of the alignment.
    p = std::aligned_alloc(alignment, (size + alignment - 1) / alignment *
                                          alignment);
  }
  return p;
}

void* allocate_or_throw(std::size_t size, std::size_t alignment) {
  void* p = count_and_allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {
AllocTally alloc_tally() { return g_tally; }
}  // namespace perfbench

void* operator new(std::size_t size) { return allocate_or_throw(size, 0); }
void* operator new[](std::size_t size) { return allocate_or_throw(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return count_and_allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return count_and_allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return allocate_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return allocate_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return count_and_allocate(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return count_and_allocate(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
