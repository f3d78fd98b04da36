#include "emu/Snapshot.h"

#include <algorithm>

using namespace wario;

void SnapshotChain::clear() {
  Module = nullptr;
  Entry.clear();
  RecordedEO = EmulatorOptions{};
  Snaps.clear();
  PageLog.clear();
  PerPage.clear();
  JournaledPages.clear();
  Blob.clear();
  Final = EmulatorResult{};
}

size_t SnapshotChain::bytes() const {
  size_t N = Snaps.size() * sizeof(Snap) + PageLog.size() * sizeof(PageRef) +
             JournaledPages.size() * sizeof(uint32_t) + Blob.size();
  for (const std::vector<PageEntry> &P : PerPage)
    N += P.size() * sizeof(PageEntry);
  N += Final.FinalMemory.size() + Final.Output.size() * sizeof(int32_t) +
       Final.Commits.size() * sizeof(EmulatorResult::CommitEvent) +
       Final.StoreCycles.size() * sizeof(uint64_t) +
       Final.RegionSizes.size() * sizeof(uint64_t);
  return N;
}

int SnapshotChain::governing(uint64_t Limit) const {
  // Snaps are ordered by strictly increasing ActiveCycle (the recording
  // run is continuous, so boundary active-cycle values never repeat).
  auto It = std::upper_bound(
      Snaps.begin(), Snaps.end(), Limit,
      [](uint64_t L, const Snap &S) { return L < S.ActiveCycle; });
  return int(It - Snaps.begin()) - 1;
}

const uint8_t *SnapshotChain::pageAt(uint32_t Page, int SnapIdx) const {
  if (SnapIdx < 0 || Page >= PerPage.size())
    return nullptr;
  const std::vector<PageEntry> &Entries = PerPage[Page];
  auto It = std::upper_bound(
      Entries.begin(), Entries.end(), uint32_t(SnapIdx),
      [](uint32_t K, const PageEntry &E) { return K < E.SnapIdx; });
  if (It == Entries.begin())
    return nullptr;
  return Blob.data() + (It - 1)->BlobOff;
}
