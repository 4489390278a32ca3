// The LER core is exact: campaigns rerun on today's LerStack must write
// the journals that the ChpCore stack wrote (tests/golden/
// parent-journals/, recorded from the grid in parent_journals.h).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "ler_common.h"
#include "parent_journals.h"

namespace qpf {
namespace {

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ParentJournalTest, EveryCampaignWritesTheParentJournal) {
  const std::filesystem::path golden =
      std::filesystem::path(QPF_TEST_GOLDEN_DIR) / "parent-journals";
  for (testing_support::ParentJournal entry :
       testing_support::parent_journals()) {
    const std::filesystem::path expected = golden / (entry.name + ".jsonl");
    ASSERT_TRUE(std::filesystem::exists(expected)) << expected;
    const std::filesystem::path dir = "parent_journal_" + entry.name;
    std::filesystem::remove_all(dir);
    entry.options.state_dir = dir.string();
    const bench::CampaignResult result = bench::run_ler_campaign(entry.options);
    EXPECT_EQ(result.trials_completed, entry.options.runs) << entry.name;
    EXPECT_EQ(file_bytes(dir / "journal.jsonl"), file_bytes(expected))
        << entry.name;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace qpf
