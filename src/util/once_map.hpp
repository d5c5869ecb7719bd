// A compute-once map for the caches that campaign workers share.
#pragma once

#include <condition_variable>
#include <mutex>
#include <unordered_map>

namespace cfsmdiag {

/// Maps each key to a value computed at most once, outside the lock.
///
/// get() returns the published value of a key, or claims the key, runs the
/// computation unlocked and publishes its result.  A caller that finds its
/// key claimed waits for that one computation; callers of other keys hold
/// the lock only for their own lookup.  When the computation throws, the
/// key is released unpublished and the exception propagates: the next
/// caller, a waiter included, claims the key and computes it afresh, as if
/// the failed attempt had never started.  (An explicit slot state rather
/// than std::call_once, whose exceptional path is unreliable in libstdc++.)
template <class Key, class Value, class Hash>
class once_map {
  public:
    /// The value of `key`, from `compute()` when no published value exists.
    /// `computed`, when non-null, tells whether this call ran `compute`.
    template <class Compute>
    Value get(const Key& key, Compute&& compute, bool* computed = nullptr) {
        std::unique_lock<std::mutex> lock(mutex_);
        // Node-based map: `s` stays valid while other keys are inserted.
        slot& s = slots_[key];
        published_.wait(lock, [&] { return s.state != slot_state::running; });
        if (computed) *computed = s.state == slot_state::empty;
        if (s.state == slot_state::ready) return s.value;
        s.state = slot_state::running;
        lock.unlock();
        Value value{};
        try {
            value = compute();
        } catch (...) {
            lock.lock();
            s.state = slot_state::empty;
            lock.unlock();
            published_.notify_all();
            throw;
        }
        lock.lock();
        s.value = value;
        s.state = slot_state::ready;
        lock.unlock();
        published_.notify_all();
        return value;
    }

  private:
    enum class slot_state { empty, running, ready };
    struct slot {
        slot_state state = slot_state::empty;
        Value value{};
    };

    std::mutex mutex_;
    std::condition_variable published_;
    std::unordered_map<Key, slot, Hash> slots_;
};

}  // namespace cfsmdiag
