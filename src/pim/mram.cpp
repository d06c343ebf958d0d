#include "pim/mram.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace pimtc::pim {

void MramBank::write(std::uint64_t offset, const void* src, std::size_t bytes) {
  if (offset + bytes > capacity_) {
    throw PimMemoryError("MRAM bank overflow: access up to byte " +
                         std::to_string(offset + bytes) +
                         " exceeds capacity " + std::to_string(capacity_));
  }
  ++write_calls_;
  const auto* s = static_cast<const std::uint8_t*>(src);
  std::uint64_t pos = offset;
  std::size_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t page_idx = pos / kPageBytes;
    const std::uint64_t in_page = pos % kPageBytes;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kPageBytes - in_page));
    auto& page = pages_[page_idx];
    if (!page) {
      // A page this write covers whole needs no zero fill; one it covers in
      // part keeps it, so a byte never written still reads 0.
      page = chunk == kPageBytes ? std::make_unique_for_overwrite<Page>()
                                 : std::make_unique<Page>();
      ++resident_pages_;
    }
    std::memcpy(page->data + in_page, s, chunk);
    s += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  high_water_ = std::max(high_water_, offset + bytes);
}

void MramBank::read(std::uint64_t offset, void* dst, std::size_t bytes) const {
  if (offset + bytes > capacity_) {
    throw PimMemoryError("MRAM bank read past capacity");
  }
  ++read_calls_;
  auto* d = static_cast<std::uint8_t*>(dst);
  std::uint64_t pos = offset;
  std::size_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t page_idx = pos / kPageBytes;
    const std::uint64_t in_page = pos % kPageBytes;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kPageBytes - in_page));
    const auto& page = pages_[page_idx];
    if (page) {
      std::memcpy(d, page->data + in_page, chunk);
    } else {
      // Never-written page: deterministic zeros, no allocation side effect.
      std::memset(d, 0, chunk);
    }
    d += chunk;
    pos += chunk;
    remaining -= chunk;
  }
}

}  // namespace pimtc::pim
