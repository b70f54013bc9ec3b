/**
 * @file
 * Fixed-capacity FIFO over one array that never reallocates.
 *
 * Pointers to held elements stay valid until they are popped, which
 * lets the core's MSHR waiters point into its reorder buffer. A ring
 * serializes as a deque does: a u64 count, then the elements front
 * to back, so swapping one for the other leaves snapshot bytes alone.
 */

#ifndef MEMSEC_UTIL_RING_HH
#define MEMSEC_UTIL_RING_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

namespace memsec {

template <class T>
class Ring
{
  public:
    explicit Ring(size_t capacity) : slots_(capacity) {}

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }
    bool empty() const { return size_ == 0; }

    /** The i-th element from the front, i < size(). */
    T &operator[](size_t i) { return slots_[slot(i)]; }
    const T &operator[](size_t i) const { return slots_[slot(i)]; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    /** Append at the back; size() must be below capacity(). */
    void push_back(const T &v)
    {
        slots_[slot(size_)] = v;
        ++size_;
    }

    /** Drop the front element; the ring must not be empty(). */
    void pop_front()
    {
        head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
        --size_;
    }

    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Front-to-back iteration. */
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using reference = std::conditional_t<Const, const T &, T &>;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using Owner = std::conditional_t<Const, const Ring, Ring>;

        Iter() = default;
        Iter(Owner *ring, size_t i) : ring_(ring), i_(i) {}

        reference operator*() const { return (*ring_)[i_]; }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        Owner *ring_ = nullptr;
        size_t i_ = 0;
    };
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

    /** Checkpoint walk: the count, then each element. A restore that
     *  holds more elements than the capacity fails. */
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        uint64_t n = self.size_;
        ar.io(n);
        if constexpr (Ar::loading) {
            if (n > self.capacity())
                ar.fail("ring holds " + std::to_string(n) +
                        " elements, capacity " +
                        std::to_string(self.capacity()));
            self.clear();
            for (uint64_t i = 0; i < n; ++i) {
                self.push_back(T{});
                ar.io(self.back());
            }
        } else {
            for (const T &e : self)
                ar.io(e);
        }
    }

  private:
    size_t slot(size_t i) const
    {
        const size_t s = head_ + i;
        return s >= slots_.size() ? s - slots_.size() : s;
    }

    std::vector<T> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace memsec

#endif // MEMSEC_UTIL_RING_HH
