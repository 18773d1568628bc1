"""Figure 20: pure-LSTM runtime grid over B x H x L (T=50).

Default / CuDNN / Echo forward+backward times across the paper's
hyperparameter cross product: B in {32,64,128}, H in {256,512,1024},
L in {1..4}. The paper's claims, asserted per point:

* Echo always beats Default significantly (up to ~3x);
* Echo beats CuDNN at most points; where CuDNN wins (deep multi-layer
  configs, where the modelled cuDNN runs cell (t, l) beside cell
  (t+1, l-1) as a diagonal wavefront across layers) the gap stays within
  ~20%.
"""

import pytest

from benchmarks.conftest import run_once
from repro.backends import Backend, benchmark_lstm
from repro.experiments import format_table

BATCHES = (32, 64, 128)
HIDDENS = (256, 512, 1024)
LAYERS = (1, 2, 3, 4)
SEQ_LEN = 50

_grid_results: dict[tuple, dict] = {}


def _point(batch, hidden, layers):
    key = (batch, hidden, layers)
    if key not in _grid_results:
        _grid_results[key] = {
            backend: benchmark_lstm(batch, hidden, layers, SEQ_LEN, backend)
            for backend in Backend
        }
    return _grid_results[key]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("hidden", HIDDENS)
@pytest.mark.parametrize("layers", LAYERS)
def test_fig20_point(benchmark, batch, hidden, layers):
    results = run_once(benchmark, lambda: _point(batch, hidden, layers))
    default = results[Backend.DEFAULT].total_seconds
    cudnn = results[Backend.CUDNN].total_seconds
    echo = results[Backend.ECHO].total_seconds

    # Echo decisively beats the unfused Default everywhere.
    assert default / echo > 1.2, f"{batch}x{hidden}x{layers}"
    # Echo vs CuDNN: Echo wins or loses by at most ~20% (paper Figure 20).
    assert cudnn / echo > 0.8, (
        f"CuDNN beats Echo by more than 20% at {batch}x{hidden}x{layers}"
    )


def test_fig20_summary(benchmark, save_result):
    def compute():
        rows = []
        wins = 0
        for batch in BATCHES:
            for hidden in HIDDENS:
                for layers in LAYERS:
                    res = _point(batch, hidden, layers)
                    d = res[Backend.DEFAULT]
                    c = res[Backend.CUDNN]
                    e = res[Backend.ECHO]
                    wins += e.total_seconds <= c.total_seconds
                    rows.append(
                        (batch, hidden, layers,
                         round(d.total_seconds * 1e3, 2),
                         round(c.total_seconds * 1e3, 2),
                         round(e.total_seconds * 1e3, 2),
                         round(d.total_seconds / e.total_seconds, 2),
                         round(c.total_seconds / e.total_seconds, 2))
                    )
        return rows, wins

    rows, wins = run_once(benchmark, compute)
    save_result(
        "fig20_pure_lstm_grid",
        format_table(
            ["B", "H", "L", "Default ms", "CuDNN ms", "Echo ms",
             "Def/Echo", "CuDNN/Echo"],
            rows,
            f"Figure 20: pure LSTM fwd+bwd runtime grid (T={SEQ_LEN}); "
            f"Echo wins vs CuDNN at {wins}/{len(rows)} points",
        ),
    )
    # Echo wins at most points (paper: "in most cases better than cuDNN").
    assert wins >= len(rows) * 0.5
    # The best Default/Echo ratio reaches the paper's "up to 3x" regime.
    best = max(r[6] for r in rows)
    assert best > 2.5
