"""One site of a view, read as ``FollowProbe`` reads its site: the letter of
diagonal t*1bar - u, through ``diagonal_index`` and ``diagonals``."""


def letter_at(view, cell):
    index = view.diagonal_index([tuple(view.t - a for a in cell)])
    return view.ca.states[view.diagonals(index)[0]]
