#include "sim/zero_array.hpp"

#include <sys/mman.h>

#include <new>

namespace msvm::sim::detail {

void* map_zero_pages(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  // MAP_NORESERVE: the simulated memories are sized for the modelled
  // machine, not for what a run touches, so the host should not reserve
  // swap for all of them up front.
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc{};
  // Back touched memory with 4 KiB pages even where the host backs
  // anonymous memory with huge pages by default: a 2 MiB page per first
  // touch would spend most of the host memory this type exists to save.
  // The advice is only a hint, so a refusal changes nothing.
  (void)madvise(map, bytes, MADV_NOHUGEPAGE);
  return map;
}

void unmap_zero_pages(void* base, std::size_t bytes) {
  if (base != nullptr) munmap(base, bytes);
}

}  // namespace msvm::sim::detail
