// MRAM bank model: the 64 MB DRAM bank attached to one DPU.
//
// Functionally a flat byte array with bounds enforcement — capacity is the
// *architectural* constraint that motivates reservoir sampling (paper
// Section 3.3).  Storage is paged (64 KB pages allocated on first write) so
// simulating thousands of DPUs costs memory proportional to the bytes
// actually touched, even when data structures sit at capacity-derived
// offsets deep inside the bank.  Reads of never-written bytes return zeros
// deterministically (like DRAM after a reset) without allocating the page;
// only a page that its first write covers whole skips the zero fill.
// Access-call counters let tests and benches verify that hot paths batch
// their traffic instead of issuing per-record operations.  The counting
// kernels write only state that outlives a launch (tc/layout.hpp), so a
// bank backs the pages of its sample and S*, not of the kernels' scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace pimtc::pim {

class PimMemoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MramBank {
 public:
  explicit MramBank(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes),
        pages_((capacity_bytes + kPageBytes - 1) / kPageBytes) {}

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Largest offset ever written + 1; proxy for bank occupancy.
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return high_water_;
  }

  /// Bytes of host memory actually backing this bank.
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return resident_pages_ * kPageBytes;
  }

  /// Lifetime access-call tallies (one per write()/read() invocation,
  /// regardless of size) — the observable difference between per-record
  /// loops and bulk transfers.
  [[nodiscard]] std::uint64_t write_calls() const noexcept {
    return write_calls_;
  }
  [[nodiscard]] std::uint64_t read_calls() const noexcept {
    return read_calls_;
  }

  void write(std::uint64_t offset, const void* src, std::size_t bytes);
  /// Reads `bytes` at `offset`; spans of never-written pages read as zeros.
  void read(std::uint64_t offset, void* dst, std::size_t bytes) const;

  /// Typed helpers for single records.
  template <typename T>
  void write_t(std::uint64_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(offset, &value, sizeof(T));
  }

  template <typename T>
  [[nodiscard]] T read_t(std::uint64_t offset) const {
    T value;
    read(offset, &value, sizeof(T));
    return value;
  }

  void clear() {
    for (auto& p : pages_) p.reset();
    resident_pages_ = 0;
    high_water_ = 0;
  }

 private:
  // pimtc-lint: allow(memory-budget) -- backing-page granularity of this sparse store, not the WRAM budget
  static constexpr std::uint64_t kPageBytes = 64 << 10;

  struct Page {
    std::uint8_t data[kPageBytes];
  };

  std::uint64_t capacity_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::uint64_t resident_pages_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t write_calls_ = 0;
  mutable std::uint64_t read_calls_ = 0;
};

}  // namespace pimtc::pim
