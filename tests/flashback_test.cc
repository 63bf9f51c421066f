// Tests for single-transaction undo (the paper's §8 future work).
#include <gtest/gtest.h>

#include <filesystem>

#include "engine/database.h"
#include "engine/flashback.h"
#include "engine/table.h"

namespace rewinddb {
namespace {

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

class FlashbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_flashback" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    auto db = Database::Create(dir_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(FlashbackTest, UndoesMixedCommittedTransaction) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* base = db_->Begin();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(table->Insert(base, {i, std::string("base")}).ok());
  }
  ASSERT_TRUE(db_->Commit(base).ok());

  Transaction* victim = db_->Begin();
  TxnId victim_id = victim->id;
  ASSERT_TRUE(table->Insert(victim, {100, std::string("added")}).ok());
  ASSERT_TRUE(table->Update(victim, {5, std::string("changed")}).ok());
  ASSERT_TRUE(table->Delete(victim, Row{7}).ok());
  ASSERT_TRUE(db_->Commit(victim).ok());

  auto fb = FlashbackTransaction(db_.get(), victim_id);
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  EXPECT_EQ(fb->operations_undone, 3u);

  EXPECT_TRUE(table->Get(nullptr, {100}).status().IsNotFound());
  auto r5 = table->Get(nullptr, {5});
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ((*r5)[1].AsString(), "base");
  auto r7 = table->Get(nullptr, {7});
  ASSERT_TRUE(r7.ok());
  EXPECT_EQ((*r7)[1].AsString(), "base");
  EXPECT_EQ(*table->Count(), 20u);
}

TEST_F(FlashbackTest, UnaffectedLaterChangesSurvive) {
  // The whole point of the paper: undo one transaction without losing
  // unrelated work committed after it.
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* victim = db_->Begin();
  TxnId victim_id = victim->id;
  ASSERT_TRUE(table->Insert(victim, {1, std::string("bad")}).ok());
  ASSERT_TRUE(db_->Commit(victim).ok());

  Transaction* later = db_->Begin();
  ASSERT_TRUE(table->Insert(later, {2, std::string("good")}).ok());
  ASSERT_TRUE(db_->Commit(later).ok());

  auto fb = FlashbackTransaction(db_.get(), victim_id);
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  EXPECT_TRUE(table->Get(nullptr, {1}).status().IsNotFound());
  EXPECT_TRUE(table->Get(nullptr, {2}).ok());
}

TEST_F(FlashbackTest, ConflictWithLaterTransactionAborts) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* victim = db_->Begin();
  TxnId victim_id = victim->id;
  ASSERT_TRUE(table->Insert(victim, {1, std::string("v1")}).ok());
  ASSERT_TRUE(table->Insert(victim, {2, std::string("v1")}).ok());
  ASSERT_TRUE(db_->Commit(victim).ok());
  // A later transaction re-modifies one of the victim's rows.
  Transaction* later = db_->Begin();
  ASSERT_TRUE(table->Update(later, {1, std::string("v2")}).ok());
  ASSERT_TRUE(db_->Commit(later).ok());

  auto fb = FlashbackTransaction(db_.get(), victim_id);
  EXPECT_TRUE(fb.status().IsAborted()) << fb.status().ToString();
  // Atomicity: NOTHING was undone, including the non-conflicting row.
  EXPECT_TRUE(table->Get(nullptr, {2}).ok());
  auto r1 = table->Get(nullptr, {1});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)[1].AsString(), "v2");
}

TEST_F(FlashbackTest, SecondaryIndexesRewoundToo) {
  Transaction* ddl = db_->Begin();
  ASSERT_TRUE(db_->CreateIndex(ddl, "t_by_val", "t", {"val"}).ok());
  ASSERT_TRUE(db_->Commit(ddl).ok());
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());

  Transaction* victim = db_->Begin();
  TxnId victim_id = victim->id;
  ASSERT_TRUE(table->Insert(victim, {1, std::string("findme")}).ok());
  ASSERT_TRUE(db_->Commit(victim).ok());

  int hits = 0;
  ASSERT_TRUE(table
                  ->IndexScan(nullptr, "t_by_val", {std::string("findme")},
                              [&](const Row&) {
                                hits++;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(hits, 1);

  auto fb = FlashbackTransaction(db_.get(), victim_id);
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  // Both the base row and its index entry are gone (the victim's index
  // maintenance was logged in the same chain and reversed with it).
  EXPECT_EQ(fb->operations_undone, 2u);
  hits = 0;
  ASSERT_TRUE(table
                  ->IndexScan(nullptr, "t_by_val", {std::string("findme")},
                              [&](const Row&) {
                                hits++;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(hits, 0);
}

TEST_F(FlashbackTest, ErrorsOnUnknownAbortedOrActive) {
  EXPECT_TRUE(FlashbackTransaction(db_.get(), 999999).status().IsNotFound());

  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* rolled_back = db_->Begin();
  TxnId rb_id = rolled_back->id;
  ASSERT_TRUE(table->Insert(rolled_back, {1, std::string("x")}).ok());
  ASSERT_TRUE(db_->Abort(rolled_back).ok());
  EXPECT_TRUE(
      FlashbackTransaction(db_.get(), rb_id).status().IsInvalidArgument());

  Transaction* active = db_->Begin();
  TxnId active_id = active->id;
  ASSERT_TRUE(table->Insert(active, {2, std::string("y")}).ok());
  EXPECT_TRUE(
      FlashbackTransaction(db_.get(), active_id).status().IsNotFound());
  ASSERT_TRUE(db_->Commit(active).ok());
}

TEST_F(FlashbackTest, RefusesSchemaChanges) {
  // A DDL transaction's catalog rows name pages its commit allocated or
  // freed. Undoing only the rows would leak a created table's pages, or
  // resurrect a dropped table over freed pages that a second DROP then
  // frees twice.
  Transaction* create = db_->Begin();
  TxnId create_id = create->id;
  ASSERT_TRUE(db_->CreateTable(create, "s", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(create).ok());
  Transaction* drop = db_->Begin();
  TxnId drop_id = drop->id;
  ASSERT_TRUE(db_->DropTable(drop, "s").ok());
  ASSERT_TRUE(db_->Commit(drop).ok());

  Status s = FlashbackTransaction(db_.get(), drop_id).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_TRUE(db_->OpenTable("s").status().IsNotFound())
      << "the dropped table came back over its freed pages";
  s = FlashbackTransaction(db_.get(), create_id).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(FlashbackTest, FlashbackOfFlashbackRestoresOriginal) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* victim = db_->Begin();
  TxnId victim_id = victim->id;
  ASSERT_TRUE(table->Insert(victim, {1, std::string("original")}).ok());
  ASSERT_TRUE(db_->Commit(victim).ok());

  auto fb1 = FlashbackTransaction(db_.get(), victim_id);
  ASSERT_TRUE(fb1.ok());
  EXPECT_TRUE(table->Get(nullptr, {1}).status().IsNotFound());

  auto fb2 = FlashbackTransaction(db_.get(), fb1->compensating_txn);
  ASSERT_TRUE(fb2.ok()) << fb2.status().ToString();
  auto row = table->Get(nullptr, {1});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "original");
}

}  // namespace
}  // namespace rewinddb
