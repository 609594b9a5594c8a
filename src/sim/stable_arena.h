// StableChunkArena: chunked placement storage with stable addresses.
//
// The scale-up layouts (docs/PERFORMANCE.md) need containers of pinned
// objects — net::Port and tcp::TcpConnection capture `this` in scheduled
// events, so their addresses must never move — without paying one heap
// allocation per object the way vector<unique_ptr<T>> does. A
// StableChunkArena placement-constructs N objects per chunk: addresses are
// stable for the arena's lifetime (growth allocates a new chunk, it never
// relocates existing ones), elements of one chunk are contiguous, and the
// allocation count drops by the chunk factor. Index-based handles replace
// owning pointers: arena[i] is a bounds-checked O(1) lookup.
//
// Not a general container: no erase, no insert, no copies/moves of the
// arena or its elements. Destruction runs element destructors in reverse
// construction order.
#ifndef INCAST_SIM_STABLE_ARENA_H_
#define INCAST_SIM_STABLE_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace incast::sim {

template <typename T, std::size_t ChunkElems = 16>
class StableChunkArena {
  static_assert(ChunkElems > 0, "a chunk holds at least one element");

 public:
  StableChunkArena() = default;
  StableChunkArena(const StableChunkArena&) = delete;
  StableChunkArena& operator=(const StableChunkArena&) = delete;

  ~StableChunkArena() { clear(); }

  // Constructs a new element in place and returns it. Never invalidates
  // references to earlier elements.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * ChunkElems) {
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    T* slot = slot_ptr(size_);
    T* obj = ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *obj;
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    if (i >= size_) throw std::out_of_range("StableChunkArena index out of range");
    return *slot_ptr(i);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    if (i >= size_) throw std::out_of_range("StableChunkArena index out of range");
    return *const_cast<StableChunkArena*>(this)->slot_ptr(i);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // Bytes of element storage held (capacity, not just constructed elements)
  // — the arena's contribution to a bytes-per-flow budget.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return chunks_.size() * sizeof(Chunk);
  }

  // Destroys every element (reverse order) and releases the chunks.
  void clear() noexcept {
    while (size_ > 0) {
      --size_;
      slot_ptr(size_)->~T();
    }
    chunks_.clear();
  }

 private:
  struct Chunk {
    alignas(T) unsigned char raw[sizeof(T) * ChunkElems];
  };

  [[nodiscard]] T* slot_ptr(std::size_t i) noexcept {
    Chunk& c = *chunks_[i / ChunkElems];
    return std::launder(
        reinterpret_cast<T*>(c.raw + (i % ChunkElems) * sizeof(T)));
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_{0};
};

}  // namespace incast::sim

#endif  // INCAST_SIM_STABLE_ARENA_H_
