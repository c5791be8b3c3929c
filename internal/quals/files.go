package quals

// FileContents maps the qualifier definition files shipped in the
// repository's qualifiers/ directory to their contents. cmd/qualcheck and
// cmd/qualprove accept these files directly (e.g. "qualprove
// qualifiers/pos.qdl").
func FileContents() map[string]string {
	out := map[string]string{}
	for k, v := range Sources() {
		out[k] = v
	}
	for k, v := range ExtrasSources() {
		out[k] = v
	}
	return out
}
