"""Generated inputs are a pure function of the seed."""

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(alc, tmp_path, name):
    def inputs(seed, sub):
        wl = workloads.WORKLOADS[name]()
        wl.setup(alc, seed, tmp_path / sub)
        return wl.inputs_bytes()

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


def test_request_sizes_span_two_decades():
    sizes = workloads.PredictBulk.SIZES
    assert sizes == tuple(sorted(sizes))
    assert sizes[-1] == 100 * sizes[0]
    assert len(sizes) % 2 == 1  # the median request falls in one size class


def test_request_files_parse_back_exactly(alc, tmp_path):
    wl = workloads.PredictBulk()
    wl.setup(alc, 3, tmp_path)
    for req in wl.requests[:3]:
        batch = alc.data.load_csv(req.path, label_column="label")
        assert (batch.x == req.x).all()
