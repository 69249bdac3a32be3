/**
 * @file
 * Flat open-addressed hash table keyed by 64-bit integers.
 *
 * One contiguous slot array, linear probing from a multiplicative
 * (Fibonacci) hash, and backward-shift deletion, so there are no
 * tombstones and a probe run stays as short as the load allows. The
 * capacity is a power of two that only rehash()/reserve() change: an
 * insert into a table with no spare slot panics, never a silent
 * rehash, so a client that sizes the table from a proven bound (the
 * hierarchy's MSI directory) finds a broken bound at once.
 *
 * Pointers to values stay valid across inserts that do not rehash,
 * but an erase() may move any entry of the probe run behind it, so a
 * client must not hold a value pointer across anything that can erase.
 */

#ifndef DOPP_UTIL_FLAT_MAP_HH
#define DOPP_UTIL_FLAT_MAP_HH

#include <utility>
#include <vector>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dopp
{

/** Open-addressed u64 → @p V map (see file comment). */
template <typename V>
class FlatMap
{
  public:
    /** Reserved key of an empty slot; never a valid key. */
    static constexpr u64 kEmpty = ~0ULL;

    /** @param capacity slot count, a power of two of at least 2. */
    explicit FlatMap(u64 capacity) { rehash(capacity); }

    u64 size() const { return count; }
    u64 capacity() const { return slots.size(); }

    /** @return the value stored under @p key, or nullptr. */
    V *
    find(u64 key)
    {
        for (u64 i = home(key);; i = (i + 1) & mask) {
            if (slots[i].key == key)
                return &slots[i].value;
            if (slots[i].key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(u64 key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** The value under @p key, inserted as V{} if absent. Panics when
     * the insert would leave no empty slot (probes need one). */
    V &
    operator[](u64 key)
    {
        DOPP_ASSERT(key != kEmpty);
        u64 i = home(key);
        for (; slots[i].key != kEmpty; i = (i + 1) & mask) {
            if (slots[i].key == key)
                return slots[i].value;
        }
        if (count + 1 >= slots.size())
            panic("flat map: full at %llu entries",
                  static_cast<unsigned long long>(count));
        ++count;
        slots[i].key = key;
        return slots[i].value;
    }

    /** Remove @p key; later entries of its probe run shift back.
     * @return whether it was present. */
    bool
    erase(u64 key)
    {
        u64 hole = home(key);
        for (; slots[hole].key != key; hole = (hole + 1) & mask) {
            if (slots[hole].key == kEmpty)
                return false;
        }
        for (u64 i = (hole + 1) & mask; slots[i].key != kEmpty;
             i = (i + 1) & mask) {
            // Move the entry at i into the hole unless the hole lies
            // before its home slot in probe order.
            if (((i - home(slots[i].key)) & mask) >= ((i - hole) & mask)) {
                slots[hole] = std::move(slots[i]);
                hole = i;
            }
        }
        slots[hole] = Slot{};
        --count;
        return true;
    }

    /** Visit every entry as visit(key, value), in slot order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &s : slots) {
            if (s.key != kEmpty)
                visit(s.key, s.value);
        }
    }

    /** Remove every entry (capacity unchanged). */
    void
    clear()
    {
        for (Slot &s : slots)
            s = Slot{};
        count = 0;
    }

    /** Grow (by doubling) until @p n entries fill at most half. */
    void
    reserve(u64 n)
    {
        u64 cap = slots.size();
        while (2 * n > cap)
            cap *= 2;
        if (cap != slots.size())
            rehash(cap);
    }

    /** Re-insert every entry into @p capacity slots (a power of two
     * above size()). */
    void
    rehash(u64 capacity)
    {
        if (capacity < 2 || !isPowerOf2(capacity) || capacity <= count)
            panic("flat map: bad capacity %llu",
                  static_cast<unsigned long long>(capacity));
        std::vector<Slot> old(capacity);
        old.swap(slots);
        mask = capacity - 1;
        shift = 64 - floorLog2(capacity);
        count = 0;
        for (Slot &s : old) {
            if (s.key != kEmpty)
                (*this)[s.key] = std::move(s.value);
        }
    }

  private:
    struct Slot
    {
        u64 key = kEmpty;
        V value = V{};
    };

    u64
    home(u64 key) const
    {
        return (key * 0x9E3779B97F4A7C15ULL) >> shift;
    }

    std::vector<Slot> slots;
    u64 mask = 0;
    unsigned shift = 0;
    u64 count = 0;
};

} // namespace dopp

#endif // DOPP_UTIL_FLAT_MAP_HH
