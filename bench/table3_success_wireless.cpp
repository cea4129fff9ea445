// Table III: driving success rate on average, WITH wireless loss (%).
#include "harness.h"

int main() {
  using namespace lbchat;
  std::vector<bench::SuccessColumn> columns;
  for (const char* strategy : {"ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat"}) {
    const auto cfg = bench::default_scenario(/*wireless_loss=*/true);
    const auto run = bench::run_or_load(cfg, strategy);
    columns.push_back({strategy, bench::success_rates_or_load(cfg, strategy, run)});
  }
  bench::print_paper_table(
      "=== Table III: driving success rate on average (w wireless loss) (%) ===", columns);
  return 0;
}
