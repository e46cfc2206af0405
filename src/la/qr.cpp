// Explicit instantiations of the QR machinery for the two scalar types the
// library ships, keeping template costs out of every consumer TU.
#include "la/qr.hpp"

namespace bkr {

template class HouseholderQR<double>;
template class HouseholderQR<std::complex<double>>;
template class IncrementalQR<double>;
template class IncrementalQR<std::complex<double>>;

template bool cholqr<double>(MatrixView<double>, MatrixView<double>, const KernelExecutor*);
template bool cholqr<std::complex<double>>(MatrixView<std::complex<double>>,
                                           MatrixView<std::complex<double>>,
                                           const KernelExecutor*);
template void householder_tsqr<double>(MatrixView<double>, MatrixView<double>);
template void householder_tsqr<std::complex<double>>(MatrixView<std::complex<double>>,
                                                     MatrixView<std::complex<double>>);

}  // namespace bkr
