// Figure 9: NAS Integer Sort, class A, 2/4/8 processes.
// Paper: EPC with 4 QPs/port improves execution time by ~13% at 2 processes,
// shrinking with more processes per node (shared-memory traffic grows).
#include "nas_common.hpp"
#include "nas/is.hpp"

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  using namespace ib12x;
  bench::run_nas_figure("Fig 9 — IS class A", nas::NasClass::A,
                        [](mvx::Communicator& c, nas::NasClass cls) {
                          nas::IsResult r = nas::run_is(c, cls);
                          if (!r.verified) throw std::runtime_error("IS verification failed");
                          return r.seconds;
                        },
                        /*paper_gain band ~13%:*/ 7, 19);
  return harness::checks_status();
}
