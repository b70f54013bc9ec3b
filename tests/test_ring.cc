/**
 * @file
 * The fixed-capacity ring (util/ring.hh) the core's reorder buffer
 * lives in: order across wraparound, pointer stability, the capacity
 * bound, and a checkpoint walk byte-identical to a std::deque's.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "util/ring.hh"
#include "util/serialize.hh"

using namespace memsec;

namespace {

std::vector<uint64_t>
contents(const Ring<uint64_t> &r)
{
    return std::vector<uint64_t>(r.begin(), r.end());
}

template <class C>
std::string
bytesOf(const C &c)
{
    Serializer s;
    s.io(c);
    return s.take();
}

} // namespace

TEST(Ring, FifoOrderAcrossWraparound)
{
    Ring<uint64_t> r(4);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 4u);
    std::deque<uint64_t> model;
    uint64_t next = 0;
    // Enough pushes and pops, in uneven runs, to wrap the head many
    // times; the ring must read as the deque does after every step.
    for (unsigned step = 0; step < 200; ++step) {
        const unsigned pushes = (step * 7) % 5;
        for (unsigned i = 0; i < pushes && r.size() < r.capacity(); ++i) {
            r.push_back(next);
            model.push_back(next++);
        }
        const unsigned pops = (step * 3) % 4;
        for (unsigned i = 0; i < pops && !r.empty(); ++i) {
            EXPECT_EQ(r.front(), model.front());
            r.pop_front();
            model.pop_front();
        }
        ASSERT_EQ(r.size(), model.size()) << "step " << step;
        ASSERT_LE(r.size(), r.capacity());
        EXPECT_EQ(contents(r),
                  std::vector<uint64_t>(model.begin(), model.end()));
        for (size_t i = 0; i < model.size(); ++i)
            EXPECT_EQ(r[i], model[i]);
        if (!model.empty()) {
            EXPECT_EQ(r.back(), model.back());
        }
    }
    EXPECT_GT(next, 100u);
}

TEST(Ring, FullAtCapacityAndPointersStayPut)
{
    Ring<uint64_t> r(3);
    r.push_back(10);
    r.push_back(11);
    const uint64_t *second = &r[1];
    r.pop_front();
    r.push_back(12);
    r.push_back(13); // wraps into the slot the first element left
    EXPECT_EQ(r.size(), r.capacity());
    // The element pushed second has not moved, and reads the same.
    EXPECT_EQ(second, &r.front());
    EXPECT_EQ(*second, 11u);
    EXPECT_EQ(contents(r), (std::vector<uint64_t>{11, 12, 13}));
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Ring, SerializesAsADeque)
{
    Ring<uint64_t> r(5);
    std::deque<uint64_t> d;
    // Wrapped: the head sits past the start of the array.
    for (uint64_t v : {1, 2, 3, 4}) {
        r.push_back(v);
        d.push_back(v);
    }
    for (int i = 0; i < 3; ++i) {
        r.pop_front();
        d.pop_front();
    }
    for (uint64_t v : {5, 6, 7}) {
        r.push_back(v);
        d.push_back(v);
    }
    const std::string bytes = bytesOf(r);
    EXPECT_TRUE(bytes == bytesOf(d));
    EXPECT_TRUE(bytesOf(Ring<uint64_t>(2)) ==
                bytesOf(std::deque<uint64_t>()));

    // Restores into an empty ring of the same capacity, and into one
    // already holding other elements.
    Ring<uint64_t> back(5);
    back.push_back(99);
    Deserializer in(bytes);
    in.io(back);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(contents(back), (std::vector<uint64_t>{4, 5, 6, 7}));
}

TEST(Ring, RestoreOverCapacityFails)
{
    const std::string bytes = bytesOf(std::deque<uint64_t>{1, 2, 3, 4});
    Ring<uint64_t> small(3);
    Deserializer in(bytes);
    try {
        in.io(small);
        FAIL() << "a 4-element restore into a 3-slot ring was accepted";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-corrupt");
        EXPECT_NE(e.message.find("capacity 3"), std::string::npos)
            << e.message;
    }
    // Exactly at capacity is fine.
    Ring<uint64_t> exact(4);
    Deserializer again(bytes);
    again.io(exact);
    EXPECT_EQ(contents(exact), (std::vector<uint64_t>{1, 2, 3, 4}));
}
