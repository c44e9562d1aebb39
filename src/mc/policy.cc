#include "src/mc/policy.h"

namespace locus {
namespace mc {

size_t GuidedPolicy::PickNext(SimTime now, const std::vector<EventInfo>& options) {
  (void)now;
  uint64_t index = decisions.size();
  size_t choice = 0;
  auto it = prescribed.find(index);
  if (it != prescribed.end()) {
    choice = it->second;
  } else if (chooser) {
    choice = chooser(index, options);
  }
  if (choice >= options.size()) {
    choice = 0;
  }
  decisions.push_back(Decision{options, choice});
  return choice;
}

bool GuidedPolicy::CrashAt(int32_t point, int32_t site) {
  int64_t ordinal = static_cast<int64_t>(crash_consults.size());
  crash_consults.push_back(CrashConsult{point, site});
  if (ordinal == crash_ordinal && crash_fired_at < 0) {
    crash_fired_at = ordinal;
    return true;
  }
  return false;
}

PctChooser::PctChooser(uint64_t seed, int num_sites, int depth, uint64_t horizon)
    : rng_(seed) {
  priority_.resize(num_sites > 0 ? num_sites : 1);
  for (uint64_t& p : priority_) {
    // High bits random, low bits leave room for demotion below any draw.
    p = (rng_.Next() | 1) << 8;
  }
  for (int d = 0; d < depth && horizon > 0; ++d) {
    uint64_t at = rng_.Below(horizon);
    int32_t site = static_cast<int32_t>(rng_.Below(priority_.size()));
    change_points_[at] = site;
  }
}

size_t PctChooser::operator()(size_t index, const std::vector<EventInfo>& options) {
  auto cp = change_points_.find(index);
  if (cp != change_points_.end() &&
      cp->second < static_cast<int32_t>(priority_.size())) {
    priority_[cp->second] = static_cast<uint64_t>(change_points_.size()) -
                            static_cast<uint64_t>(cp->second);  // Below any draw.
  }
  size_t best = 0;
  uint64_t best_priority = 0;
  for (size_t i = 0; i < options.size(); ++i) {
    int32_t site = ActorSite(options[i]);
    // Non-site events (process wake-ups, generic timers) keep their
    // historical position: prefer them first so the kernel's own sequencing
    // is perturbed only through message traffic.
    uint64_t p = site < 0 || site >= static_cast<int32_t>(priority_.size())
                     ? ~0ULL
                     : priority_[site];
    if (i == 0 || p > best_priority) {
      best = i;
      best_priority = p;
    }
  }
  return best;
}

}  // namespace mc
}  // namespace locus
