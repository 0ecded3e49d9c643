#include "workloads/outcome_cache.h"

#include <exception>
#include <utility>

#include "common/hash.h"

namespace mrapid::wl {

std::size_t OutcomeCache::KeyHash::operator()(const OutcomeKey& key) const {
  Fnv64 hash;
  hash.mix(static_cast<std::uint64_t>(key.kind));
  for (const std::uint64_t field : key.fields) hash.mix(field);
  return static_cast<std::size_t>(hash.value());
}

// libstdc++ layouts: recency node (two links, key); map node (next
// pointer, key and Entry, cached hash) and its bucket slot; control
// block (vtable pointer, use and weak counts); one allocator header for
// each of those three allocations.
const std::size_t OutcomeCache::kEntryBytes =
    (2 * sizeof(void*) + sizeof(OutcomeKey)) +
    (sizeof(void*) + sizeof(std::pair<const OutcomeKey, Entry>) + sizeof(std::size_t)) +
    sizeof(void*) + 2 * sizeof(void*) + 3 * sizeof(void*);

OutcomeCache& OutcomeCache::shared() {
  static OutcomeCache cache(kBudgetBytes);
  return cache;
}

std::shared_ptr<const void> OutcomeCache::get_or_compute(const OutcomeKey& key,
                                                         const std::function<Value()>& compute) {
  std::unique_lock lock(mu_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return it->second.value.data;
  }
  if (const auto it = computing_.find(key); it != computing_.end()) {
    const std::shared_future<Value> pending = it->second;
    lock.unlock();
    return pending.get().data;
  }
  std::promise<Value> promise;
  computing_.emplace(key, promise.get_future().share());
  lock.unlock();

  Value value;
  try {
    value = compute();
  } catch (...) {
    lock.lock();
    computing_.erase(key);
    promise.set_exception(std::current_exception());
    throw;
  }
  promise.set_value(value);
  lock.lock();
  computing_.erase(key);
  retain(key, value);
  return value.data;
}

void OutcomeCache::retain(const OutcomeKey& key, Value value) {
  const std::size_t charge = value.bytes + kEntryBytes;
  if (charge > budget_) return;
  while (resident_ + charge > budget_) {
    const auto victim = entries_.find(recency_.back());
    resident_ -= victim->second.value.bytes + kEntryBytes;
    entries_.erase(victim);
    recency_.pop_back();
  }
  resident_ += charge;
  recency_.push_front(key);
  entries_.emplace(key, Entry{std::move(value), recency_.begin()});
}

std::size_t OutcomeCache::resident_bytes() const {
  const std::lock_guard lock(mu_);
  return resident_;
}

std::size_t OutcomeCache::size() const {
  const std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace mrapid::wl
