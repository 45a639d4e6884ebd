// Figure 10: NAS Integer Sort, class B, 2/4/8 processes.
// Paper: ~9% execution-time improvement at 2 processes with 4 QPs/port EPC.
#include "nas_common.hpp"
#include "nas/is.hpp"

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  using namespace ib12x;
  bench::run_nas_figure("Fig 10 — IS class B", nas::NasClass::B,
                        [](mvx::Communicator& c, nas::NasClass cls) {
                          nas::IsResult r = nas::run_is(c, cls);
                          if (!r.verified) throw std::runtime_error("IS verification failed");
                          return r.seconds;
                        },
                        /*paper_gain band ~9%:*/ 5, 15);
  return harness::checks_status();
}
