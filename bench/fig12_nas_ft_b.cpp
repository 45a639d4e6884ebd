// Figure 12: NAS Fourier Transform, class B, 2/4/8 processes.
// Paper: ~5–7% execution-time improvement with 4 QPs/port EPC.
#include "nas_common.hpp"
#include "nas/ft.hpp"

int main(int argc, char** argv) {
  ib12x::bench::init(argc, argv);
  using namespace ib12x;
  bench::run_nas_figure("Fig 12 — FT class B", nas::NasClass::B,
                        [](mvx::Communicator& c, nas::NasClass cls) {
                          nas::FtResult r = nas::run_ft(c, cls);
                          if (!r.verified) throw std::runtime_error("FT verification failed");
                          return r.seconds;
                        },
                        /*paper_gain band 5-7%:*/ 3, 11);
  return harness::checks_status();
}
