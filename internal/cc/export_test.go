package cc

// parseWindow parses src as Parse does and also returns the capacity
// the parser's window and the preprocessor's lookahead grew to.
func parseWindow(filename, src string) (file *File, win, ahead int, err error) {
	pp := NewPreprocessor()
	s := pp.stream(NewLexer(src), pp.expandSource)
	p := newParser(filename, s)
	file, err = p.parse()
	return file, cap(p.win), cap(s.ahead), err
}

// largestStep returns the most tokens one step of the preprocessor
// produces on src: the largest expansion of a single source token.
func largestStep(src string) (int, error) {
	pp := NewPreprocessor()
	s := pp.stream(NewLexer(src), pp.expandSource)
	var out []Token
	largest := 0
	for !s.done {
		out = s.step(out[:0])
		largest = max(largest, len(out))
	}
	return largest, s.finish(nil)
}

// collectedParse is the frontend that lexes the whole file, then
// preprocesses it, then parses the result: the reference the streamed
// Parse must match.
func collectedParse(filename, src string) (*File, error) {
	toks, err := Tokenize(filename, src)
	if err != nil {
		return nil, err
	}
	pp := NewPreprocessor()
	if toks, err = pp.run(toks, pp.expandSource); err != nil {
		return nil, inFile(err, filename)
	}
	return ParseTokens(filename, toks)
}
