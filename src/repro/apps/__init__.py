"""The five HDC applications of the paper's evaluation, written in HDC++.

Table 2 of the paper — application, workload, stages, evaluated targets,
baselines — is data: ``repro.evaluation.applications.APPLICATIONS``, rendered
in ``docs/ARCHITECTURE.md`` ("Applications").  Every application is
expressed once against the :mod:`repro.hdcpp` API — its search and training
as one :class:`~repro.apps.common.Search`, which its one-shot programs and
its served program both derive from — and compiled for any back end; its
class's ``targets`` says where the paper evaluates it and it may be served.
HD-Classification and HD-Clustering map onto the HDC accelerators whole,
through the stage primitives.  HyperOMS and
HD-Hashtable are evaluated on the CPU and GPU only (their encodings are not
device operations) but still compile for the accelerators: the encoder stays
on the host and the search runs on the device's Hamming unit.  RelHD's
training has no encoder operand for a device to program its base memory
from, so the accelerator back ends refuse it at compile time.
"""

from repro.apps.common import AppResult
from repro.apps.classification import HDClassification, HDClassificationInference
from repro.apps.clustering import HDClustering
from repro.apps.hyperoms import HyperOMS
from repro.apps.relhd import RelHD
from repro.apps.hashtable import HDHashtable

__all__ = [
    "AppResult",
    "HDClassification",
    "HDClassificationInference",
    "HDClustering",
    "HyperOMS",
    "RelHD",
    "HDHashtable",
]
