// Fixed-size array whose storage the host kernel zero-fills on demand.
//
// The simulated chip has large per-core memories (private DRAM, MPB, L1
// and L2) that a run touches only in small part. A ZeroArray maps them as
// one anonymous private mapping: construction writes nothing, every
// element reads as zero until it is first written, and a host page costs
// resident memory only once the simulation writes to it. The contents an
// access sees are exactly those of a zero-filled std::vector.
//
// T must be trivially copyable, and all-zero bytes must be its initial
// value. Elements are never constructed or destroyed.
#pragma once

#include <cstddef>
#include <type_traits>

namespace msvm::sim {

namespace detail {
/// Maps `bytes` of zero-on-demand memory (nullptr for 0 bytes); throws
/// std::bad_alloc when the host refuses the mapping.
void* map_zero_pages(std::size_t bytes);
void unmap_zero_pages(void* base, std::size_t bytes);
}  // namespace detail

template <typename T>
class ZeroArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroArray elements are never constructed or destroyed");

 public:
  explicit ZeroArray(std::size_t n)
      : data_(static_cast<T*>(detail::map_zero_pages(n * sizeof(T)))),
        size_(n) {}
  ~ZeroArray() { detail::unmap_zero_pages(data_, size_ * sizeof(T)); }

  ZeroArray(const ZeroArray&) = delete;
  ZeroArray& operator=(const ZeroArray&) = delete;

  std::size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  T* data_;
  std::size_t size_;
};

}  // namespace msvm::sim
