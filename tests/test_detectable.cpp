// Detectable-recovery semantics of the shared announcement API: after
// any completed operation, the owning thread's descriptor holds the
// operation and its response; an operation that never committed (the
// crash model) is reported as incomplete.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/ds/dt_list.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/ds/policies.hpp"
#include "repro/pmem/persist.hpp"
#include "repro/pmem/shadow.hpp"

namespace {

using repro::ds::AnnouncementBoard;
using repro::ds::DetectableOp;
using repro::ds::DtList;
using repro::ds::IsbList;
using repro::ds::IsbQueue;
using repro::ds::OpDesc;
using repro::ds::OpKind;
using repro::ds::PersistProfile;
using repro::ds::thread_slot;

TEST(Detectable, CompletedInsertIsRecoverable) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbList list;
  ASSERT_TRUE(list.insert(42));
  const auto rec = list.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::insert);
  EXPECT_EQ(rec.key, 42);
  EXPECT_TRUE(rec.completed);
  EXPECT_TRUE(rec.ok);
}

TEST(Detectable, FailedOperationRecoversItsResponse) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbList list;
  ASSERT_TRUE(list.insert(7));
  ASSERT_FALSE(list.insert(7));  // duplicate
  const auto rec = list.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::insert);
  EXPECT_TRUE(rec.completed);
  EXPECT_FALSE(rec.ok);
}

TEST(Detectable, DequeueRecoversValue) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbQueue q;
  q.enqueue(777);
  const auto r = q.dequeue();
  ASSERT_TRUE(r.ok);
  const auto rec = q.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::dequeue);
  EXPECT_TRUE(rec.completed);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.result, 777u);
}

TEST(Detectable, FullValueSpaceSurvivesRecovery) {
  // Regression: the descriptor must preserve all 64 value bits — a
  // packed (value << 1 | ok) encoding would truncate bit 63.
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  constexpr std::uint64_t kBig = (1ull << 63) | 0xDEADBEEFull;
  IsbQueue q;
  q.enqueue(kBig);
  const auto r = q.dequeue();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.value, kBig);
  const auto rec = q.recover(thread_slot());
  EXPECT_TRUE(rec.completed);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.result, kBig);
}

TEST(Detectable, UncommittedOpReportsIncomplete) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  AnnouncementBoard board;
  {
    // Announce and "crash" before commit.
    DetectableOp op(board, OpKind::erase, 13, PersistProfile::general);
    EXPECT_FALSE(op.committed());
  }
  const auto rec = board.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::erase);
  EXPECT_EQ(rec.key, 13);
  EXPECT_FALSE(rec.completed);
}

TEST(Detectable, SequenceNumberDistinguishesOperations) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  DtList list;
  ASSERT_TRUE(list.insert(1));
  const auto first = list.recover(thread_slot());
  ASSERT_TRUE(list.erase(1));
  const auto second = list.recover(thread_slot());
  EXPECT_EQ(second.seq, first.seq + 1);
  EXPECT_EQ(second.kind, OpKind::erase);
}

// The announcement copied after every single store of one operation:
// each copy is a state a killed process (or a line written back
// between two stores) can leave behind.
struct DescriptorTrace {
  const OpDesc* desc = nullptr;
  std::vector<std::array<unsigned char, sizeof(OpDesc)>> copies;
};
DescriptorTrace g_trace;

TEST(Detectable, EveryStorePrefixNamesOneWholeOperation) {
  for (PersistProfile profile :
       {PersistProfile::general, PersistProfile::optimized}) {
    repro::pmem::ModeGuard guard(repro::pmem::Mode::shadow);
    repro::pmem::shadow::reset();
    AnnouncementBoard board;
    {
      DetectableOp op(board, OpKind::insert, 11, profile);
      op.commit(true, 111);
    }
    const std::uint64_t n = board.recover(thread_slot()).seq;

    g_trace.desc = &board.slot(thread_slot());
    g_trace.copies.clear();
    repro::pmem::shadow::store_observer() = [](void*) {
      auto& c = g_trace.copies.emplace_back();
      std::memcpy(c.data(), static_cast<const void*>(g_trace.desc),
                  c.size());
    };
    {
      DetectableOp op(board, OpKind::erase, 22, profile);
      op.commit(false, 222);
    }
    repro::pmem::shadow::store_observer() = nullptr;
    repro::pmem::shadow::reset();
    ASSERT_GE(g_trace.copies.size(), 4u);

    AnnouncementBoard replay;
    for (std::size_t i = 0; i < g_trace.copies.size(); ++i) {
      std::memcpy(static_cast<void*>(&replay.mine()),
                  g_trace.copies[i].data(), sizeof(OpDesc));
      const auto r = replay.recover(thread_slot());
      SCOPED_TRACE(testing::Message() << "after store " << i + 1);
      if (r.seq == n) {
        // Op N+1's announcement has not landed: op N, whole.
        EXPECT_EQ(r.kind, OpKind::insert);
        EXPECT_EQ(r.key, 11);
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.result, 111u);
      } else {
        ASSERT_EQ(r.seq, n + 1);
        EXPECT_EQ(r.kind, OpKind::erase);
        EXPECT_EQ(r.key, 22);
        if (r.completed) {
          EXPECT_FALSE(r.ok);
          EXPECT_EQ(r.result, 222u);
        }
      }
    }
    const auto last = board.recover(thread_slot());
    EXPECT_EQ(last.seq, n + 1);
    EXPECT_TRUE(last.completed);
  }
}

}  // namespace
